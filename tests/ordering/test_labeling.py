"""Forward/backward labeling against the paper's Fig. 4(b) values."""

import pytest

from repro.core import ChannelOrdering
from repro.errors import DeadlockError, ValidationError
from repro.ordering import channel_ordering_with_labels
from repro.ordering.algorithm import LabelingResult


@pytest.fixture()
def labels(motivating, suboptimal_ordering) -> LabelingResult:
    """Labels computed with the paper's initial order (P2 puts f, b, d)."""
    return channel_ordering_with_labels(motivating, suboptimal_ordering).labels


#: Fig. 4(b) red labels: (weight, timestamp) on each arc head.
FORWARD_EXPECTED = {
    "a": (3, 1),
    "f": (13, 2),
    "b": (13, 3),
    "d": (13, 4),
    "g": (17, 5),
    "c": (17, 6),
    "e": (19, 7),
    "h": (22, 8),
}

#: Fig. 4(b) blue labels: (weight, timestamp) on each arc tail.
BACKWARD_EXPECTED = {
    "h": (2, 1),
    "d": (10, 2),
    "g": (10, 3),
    "e": (10, 4),
    "f": (13, 5),
    "c": (13, 6),
    "b": (16, 7),
    "a": (23, 8),
}


class TestPaperLabels:
    @pytest.mark.parametrize("channel,expected", FORWARD_EXPECTED.items())
    def test_forward_head_labels(self, labels, channel, expected):
        assert labels.head(channel) == expected

    @pytest.mark.parametrize("channel,expected", BACKWARD_EXPECTED.items())
    def test_backward_tail_labels(self, labels, channel, expected):
        assert labels.tail(channel) == expected

    def test_worked_example_p2(self, labels, motivating):
        """Weight 13 = MaxInArcWeight(P2)=3 + SumOutArcLatency(P2)=5 +
        VertexLatency(P2)=5."""
        for channel in ("f", "b", "d"):
            assert labels.head(channel)[0] == 13

    def test_worked_example_p6(self, labels):
        """Weight 10 = MaxOutArcWeight(P6)=2 + SumInArcLatency(P6)=6 +
        VertexLatency(P6)=2."""
        for channel in ("d", "g", "e"):
            assert labels.tail(channel)[0] == 10


class TestLabelingMechanics:
    def test_forward_timestamps_are_a_permutation(self, labels, motivating):
        timestamps = sorted(
            labels.head(c)[1] for c in motivating.channel_names
        )
        assert timestamps == list(range(1, 9))

    def test_backward_timestamps_are_a_permutation(self, labels, motivating):
        timestamps = sorted(
            labels.tail(c)[1] for c in motivating.channel_names
        )
        assert timestamps == list(range(1, 9))

    def test_initial_put_order_changes_timestamps_not_weights(
        self, motivating
    ):
        declaration = ChannelOrdering.declaration_order(motivating)
        labels = channel_ordering_with_labels(motivating, declaration).labels
        # With puts (b, d, f) the timestamps permute but weights stay 13.
        assert labels.head("b") == (13, 2)
        assert labels.head("d") == (13, 3)
        assert labels.head("f") == (13, 4)

    def test_backward_requires_forward(self, labels, motivating):
        """Backward Labeling visits each vertex's in-arcs in ascending
        order of their forward timestamps."""
        for process in motivating.process_names:
            arcs = motivating.input_channels(process)
            by_forward = sorted(arcs, key=lambda c: labels.head(c)[1])
            by_backward = sorted(arcs, key=lambda c: labels.tail(c)[1])
            assert by_backward == by_forward

    def test_unreachable_zero_token_cycle_raises(self):
        from repro.core import SystemBuilder

        system = (
            SystemBuilder("dead")
            .source("src")
            .process("A")
            .process("B")
            .sink("snk")
            .channel("i", "src", "A")
            .channel("x", "A", "B")
            .channel("y", "B", "A")  # no initial tokens: structurally dead
            .channel("o", "B", "snk")
            .build()
        )
        with pytest.raises(
            DeadlockError,
            match=r"^forward labeling cannot reach processes \['A', 'B', 'snk'\]: "
            "A -> B -> A is a dependency loop",
        ) as info:
            channel_ordering_with_labels(system)
        # snk is unreached too, but lies on no loop.
        assert info.value.cycle == ["A", "B"]

    def test_preloaded_feedback_is_traversable(self, feedback_system):
        ordering = ChannelOrdering.declaration_order(feedback_system)
        result = channel_ordering_with_labels(feedback_system, ordering).labels
        for channel in feedback_system.channel_names:
            result.head(channel)
            result.tail(channel)

    def test_missing_label_access_raises(self, labels):
        with pytest.raises(ValidationError, match="not forward-labeled"):
            labels.head("ghost")
        with pytest.raises(ValidationError, match="not backward-labeled"):
            labels.tail("ghost")
