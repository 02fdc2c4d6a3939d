"""TMG DOT export and terminal plotting."""

from repro.model import build_tmg
from repro.tmg import analyze, tmg_to_dot


class TestTmgDot:
    def test_contains_all_elements(self, motivating):
        tmg = build_tmg(motivating).tmg
        dot = tmg_to_dot(tmg)
        assert dot.startswith("digraph")
        for t in tmg.transition_names:
            assert f'"{t}"' in dot
        for p in tmg.place_names:
            assert f'"{p}"' in dot

    def test_delays_and_tokens_annotated(self, motivating):
        tmg = build_tmg(motivating).tmg
        dot = tmg_to_dot(tmg)
        assert "d=5" in dot  # P2's computation
        assert "● 1" in dot  # an initially marked place

    def test_critical_cycle_highlighting(self, motivating,
                                         suboptimal_ordering):
        tmg = build_tmg(motivating, suboptimal_ordering).tmg
        report = analyze(tmg)
        dot = tmg_to_dot(
            tmg,
            highlight_transitions=report.critical_cycle,
            highlight_places=report.critical_places,
        )
        assert dot.count('color="red"') >= len(report.critical_cycle)

    def test_zero_token_display_toggle(self, motivating):
        tmg = build_tmg(motivating).tmg
        with_zeros = tmg_to_dot(tmg, show_zero_tokens=True)
        without = tmg_to_dot(tmg, show_zero_tokens=False)
        assert with_zeros.count("\\n0") > without.count("\\n0")


class TestAsciiPlots:
    def test_series_basic(self):
        from repro.viz import ascii_series

        text = ascii_series([1.0, 5.0, 3.0], width=20, height=5, marker="@")
        assert text.count("@") == 3
        assert "+" in text

    def test_hline_rendered(self):
        from repro.viz import ascii_series

        text = ascii_series([1.0, 5.0], width=10, height=4, hline=3.0)
        assert "-" in text

    def test_empty_series(self):
        from repro.viz import ascii_series

        assert "empty" in ascii_series([])

    def test_constant_series(self):
        from repro.viz import ascii_series

        text = ascii_series([2.0, 2.0, 2.0], width=12, height=4, marker="@")
        assert text.count("@") >= 1
