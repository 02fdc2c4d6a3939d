"""LintContext serves the lowered IR, the shared key of every memo."""

from repro.core import ChannelOrdering
from repro.ir import lower
from repro.lint.context import LintContext
from repro.perf import PerformanceEngine


class TestContextIr:
    def test_ir_is_the_shared_lowering(self, motivating):
        context = LintContext(motivating)
        assert context.ir is lower(motivating)
        assert context.ir is context.ir

    def test_engine_structure_key_is_the_context_ir(self, motivating):
        context = LintContext(motivating)
        engine = PerformanceEngine()
        engine.analyze(motivating, context.ordering)
        [key] = engine.structures
        assert key is context.ir

    def test_unsound_configuration_has_no_ir(self, motivating):
        broken = ChannelOrdering(gets={"P6": ("d", "e")}, puts={})
        context = LintContext(motivating, broken)
        assert context.ir is None
