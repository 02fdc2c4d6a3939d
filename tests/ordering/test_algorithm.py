"""Algorithm 1 end-to-end: the paper's optimum and structural guarantees."""

import pytest

from repro.core import ChannelOrdering, fork_join
from repro.errors import ValidationError
from repro.model import analyze_system, deadlock_cycle
from repro.ordering import (
    channel_ordering,
    channel_ordering_with_labels,
    exhaustive_search,
)


class TestMotivatingOptimum:
    def test_final_orders_match_paper(self, motivating, suboptimal_ordering):
        ordering = channel_ordering(motivating, suboptimal_ordering)
        # Section 4 worked example: P6 reads d, then g, then e; P2 writes
        # b, then f, then d.
        assert ordering.gets_of("P6") == ("d", "g", "e")
        assert ordering.puts_of("P2") == ("b", "f", "d")

    def test_achieves_cycle_time_12(self, motivating, suboptimal_ordering):
        ordering = channel_ordering(motivating, suboptimal_ordering)
        assert analyze_system(motivating, ordering).cycle_time == 12

    def test_matches_exhaustive_optimum(self, motivating,
                                        suboptimal_ordering):
        ordering = channel_ordering(motivating, suboptimal_ordering)
        achieved = analyze_system(motivating, ordering).cycle_time
        best = exhaustive_search(motivating).best_cycle_time
        assert achieved == best == 12

    def test_deadlock_free_from_any_initial_order(self, motivating):
        from repro.core.system import all_orderings

        for initial in all_orderings(motivating):
            ordering = channel_ordering(motivating, initial)
            assert deadlock_cycle(motivating, ordering) is None

    def test_default_initial_is_declaration(self, motivating):
        ordering = channel_ordering(motivating)
        assert deadlock_cycle(motivating, ordering) is None
        assert analyze_system(motivating, ordering).cycle_time == 12

    def test_labels_exposed(self, motivating, suboptimal_ordering):
        outcome = channel_ordering_with_labels(motivating, suboptimal_ordering)
        assert outcome.labels.head("e") == (19, 7)
        assert outcome.ordering.gets_of("P6") == ("d", "g", "e")


class TestSortingRules:
    def test_gets_ascending_head_weights(self, motivating,
                                         suboptimal_ordering):
        outcome = channel_ordering_with_labels(motivating, suboptimal_ordering)
        for process in motivating.process_names:
            weights = [
                outcome.labels.head(c) for c in outcome.ordering.gets_of(process)
            ]
            assert weights == sorted(weights)

    def test_puts_descending_tail_weights(self, motivating,
                                          suboptimal_ordering):
        outcome = channel_ordering_with_labels(motivating, suboptimal_ordering)
        for process in motivating.process_names:
            keys = [
                (-outcome.labels.tail(c)[0], outcome.labels.tail(c)[1])
                for c in outcome.ordering.puts_of(process)
            ]
            assert keys == sorted(keys)

    def test_timestamp_tie_break_on_symmetric_diamond(self):
        """On a fully symmetric fork/join every weight ties; the timestamp
        tie-break must still produce consistent (deadlock-free) orders."""
        system = fork_join(3, branch_latencies=(4, 4, 4))
        ordering = channel_ordering(system)
        assert deadlock_cycle(system, ordering) is None
        # fork writes and join reads must visit branches in the SAME
        # branch order, otherwise a circular wait arises.
        fork_targets = [
            system.channel(c).consumer for c in ordering.puts_of("fork")
        ]
        join_sources = [
            system.channel(c).producer for c in ordering.gets_of("join")
        ]
        assert fork_targets == join_sources


class TestAsymmetricForkJoin:
    def test_prioritizes_long_branch(self):
        system = fork_join(3, branch_latencies=(2, 10, 5))
        ordering = channel_ordering(system)
        # The fork should feed the slowest branch first...
        first_fed = system.channel(ordering.puts_of("fork")[0]).consumer
        assert first_fed == "branch1"
        # ...and the join should read the fastest branch first.
        first_read = system.channel(ordering.gets_of("join")[0]).producer
        assert first_read == "branch0"

    def test_beats_reversed_baseline(self):
        from repro.ordering.baselines import reversed_ordering

        system = fork_join(3, branch_latencies=(2, 10, 5))
        algo = analyze_system(system, channel_ordering(system)).cycle_time
        search = exhaustive_search(system)
        assert algo == search.best_cycle_time
        assert algo <= search.worst_cycle_time


class TestFinalOrderingValidation:
    def test_output_is_valid_permutation(self, motivating):
        ordering = channel_ordering(motivating)
        ordering.validate(motivating)

    def test_testbench_orders_present(self, motivating):
        ordering = channel_ordering(motivating)
        assert ordering.puts_of("Psrc") == ("a",)
        assert ordering.gets_of("Psnk") == ("h",)


class TestInitialOrderingValidation:
    """A caller's initial ordering is checked; the default one is not."""

    def _truncated(self, system):
        base = ChannelOrdering.declaration_order(system)
        return ChannelOrdering(
            gets={**base.gets, "P6": ("g", "d")}, puts=base.puts
        )

    def test_invalid_initial_ordering_raises(self, motivating):
        bad = self._truncated(motivating)
        with pytest.raises(ValidationError, match="not a permutation"):
            channel_ordering(motivating, bad)
        with pytest.raises(ValidationError, match="not a permutation"):
            channel_ordering_with_labels(motivating, bad)

    def test_only_a_caller_ordering_is_validated(
        self, motivating, suboptimal_ordering, monkeypatch
    ):
        # The result is a permutation by construction; the property in
        # tests/ordering/test_final_ordering.py carries that guarantee.
        checked = []
        validate = ChannelOrdering.validate

        def spy(ordering, system):
            checked.append(ordering)
            validate(ordering, system)

        monkeypatch.setattr(ChannelOrdering, "validate", spy)
        channel_ordering(motivating)
        assert checked == []
        channel_ordering(motivating, suboptimal_ordering)
        assert checked == [suboptimal_ordering]
