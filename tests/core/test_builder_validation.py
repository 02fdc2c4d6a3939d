"""Tests for the builder and structural validation."""

import pytest

from repro.core import SystemBuilder, validate_system
from repro.errors import ValidationError


class TestBuilder:
    def test_fluent_build(self):
        system = (
            SystemBuilder("p")
            .source("src")
            .process("a", latency=5)
            .sink("snk")
            .channel("i", "src", "a", latency=2)
            .channel("o", "a", "snk")
            .build()
        )
        assert system.process("a").latency == 5
        assert system.channel("i").latency == 2

    def test_round_shape(self):
        system = (
            SystemBuilder("t")
            .source("src")
            .process("a", latency=4)
            .sink("snk")
            .channel("i", "src", "a", latency=2)
            .channel("o", "a", "snk")
            .build()
        )
        assert system.process("a").latency == 4
        assert [p.name for p in system.sources()] == ["src"]
        assert [p.name for p in system.sinks()] == ["snk"]

    def test_channel_declaration_order_is_call_order(self):
        system = (
            SystemBuilder("t")
            .source("src")
            .process("a")
            .sink("snk")
            .channel("i2", "src", "a")
            .channel("i1", "src", "a")
            .channel("o", "a", "snk")
            .build()
        )
        assert system.input_channels("a") == ("i2", "i1")

    def test_channels_varargs(self):
        system = (
            SystemBuilder()
            .source("src")
            .process("a")
            .sink("snk")
            .channels(("i", "src", "a", 3), ("o", "a", "snk"))
            .build()
        )
        assert system.channel("i").latency == 3
        assert system.channel("o").latency == 1

    def test_build_validates_by_default(self):
        builder = SystemBuilder().source("src").process("a").sink("snk")
        builder.channel("i", "src", "a")
        # worker 'a' has no outputs -> invalid
        with pytest.raises(ValidationError):
            builder.build()

    def test_build_can_skip_validation(self):
        builder = SystemBuilder().source("src").process("a").sink("snk")
        builder.channel("i", "src", "a")
        system = builder.build(validate=False)
        assert system.has_process("a")

    def test_initial_tokens_passthrough(self):
        system = (
            SystemBuilder()
            .source("src")
            .process("a")
            .process("b")
            .sink("snk")
            .channel("i", "src", "a")
            .channel("x", "a", "b")
            .channel("y", "b", "a", initial_tokens=2)
            .channel("o", "b", "snk")
            .build()
        )
        assert system.channel("y").initial_tokens == 2


class TestValidation:
    def _builder(self):
        return SystemBuilder().source("src").process("a").sink("snk")

    def test_valid_minimal_system(self, tiny_pipeline):
        validate_system(tiny_pipeline)  # does not raise

    def test_no_workers_rejected(self):
        builder = SystemBuilder().source("src").sink("snk")
        builder.channel("x", "src", "snk")
        with pytest.raises(ValidationError, match="no worker"):
            validate_system(builder._system)

    def test_source_with_inputs_rejected(self):
        builder = self._builder()
        builder.channel("i", "src", "a")
        builder.channel("o", "a", "snk")
        builder.channel("bad", "a", "src")
        with pytest.raises(ValidationError, match="source"):
            validate_system(builder._system)

    def test_sink_with_outputs_rejected(self):
        builder = self._builder().process("b")
        builder.channel("i", "src", "a")
        builder.channel("o", "a", "snk")
        builder.channel("bad", "snk", "b")
        builder.channel("ob", "b", "snk")
        with pytest.raises(ValidationError, match="sink"):
            validate_system(builder._system)

    def test_worker_without_inputs_rejected(self):
        builder = self._builder()
        builder.channel("o", "a", "snk")
        with pytest.raises(ValidationError, match="no input"):
            validate_system(builder._system)

    def test_worker_without_outputs_rejected(self):
        builder = self._builder()
        builder.channel("i", "src", "a")
        with pytest.raises(ValidationError, match="no output"):
            validate_system(builder._system)

    def test_unreachable_island_rejected(self):
        builder = self._builder().process("b").process("c")
        builder.channel("i", "src", "a")
        builder.channel("o", "a", "snk")
        # b and c feed each other but are disconnected from the testbench
        builder.channel("x", "b", "c")
        builder.channel("y", "c", "b")
        with pytest.raises(ValidationError, match="not reachable"):
            validate_system(builder._system)

    def test_cannot_reach_sink_rejected(self):
        builder = self._builder().process("b").process("c")
        builder.channel("i", "src", "a")
        builder.channel("o", "a", "snk")
        builder.channel("ib", "src", "b")
        # b -> c -> b loop never drains to the sink
        builder.channel("x", "b", "c")
        builder.channel("y", "c", "b")
        with pytest.raises(ValidationError, match="cannot reach"):
            validate_system(builder._system)


class TestChannelCallSiteErrors:
    """Wiring against an undeclared process fails where the typo is."""

    def test_unknown_producer_fails_at_the_channel_call(self):
        builder = SystemBuilder("t").source("src").process("a").sink("snk")
        with pytest.raises(
            ValidationError,
            match="channel 'c': producer 'ghost' is not a declared process",
        ):
            builder.channel("c", "ghost", "a")

    def test_unknown_consumer_names_the_role(self):
        builder = SystemBuilder("t").source("src").process("a").sink("snk")
        with pytest.raises(
            ValidationError,
            match="channel 'c': consumer 'snkk' is not a declared process",
        ):
            builder.channel("c", "a", "snkk")

    def test_error_points_at_the_fix(self):
        builder = SystemBuilder("t").source("src")
        with pytest.raises(ValidationError, match=r"\.source\(\)/\.sink\(\)"):
            builder.channel("c", "src", "missing")

    def test_nothing_is_added_on_failure(self):
        builder = SystemBuilder("t").source("src").process("a").sink("snk")
        with pytest.raises(ValidationError):
            builder.channel("c", "a", "typo")
        builder.channel("i", "src", "a").channel("c", "a", "snk")
        system = builder.build()
        assert system.channel_names == ("i", "c")
