"""The marked rows the static analyses read must be the TMG's places.

The certificate checker never materialises a ``TimedMarkedGraph`` — it
walks the integer place rows of :func:`repro.model.build._marked_rows`,
the same rows ``build_tmg(...).tmg`` is loaded from.  The soundness of
everything downstream (token invariants, the Commoner ranking, min-token
cycle bounds) rests on those rows matching the TMG's places
field-for-field, so this suite pins the two against each other on the
shipped examples and on random layered systems, and checks the token
accounting on ``build_tmg(...).tmg.places``.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core import ChannelOrdering
from repro.ir import lower
from repro.model import build_tmg
from repro.model.build import _marked_rows
from tests.strategies import layered_systems


def _tmg_places(system, ordering):
    model = build_tmg(system, ordering)
    return {(p.name, p.source, p.target, p.tokens) for p in model.tmg.places}


def _absint_places(system, ordering):
    rows = _marked_rows(lower(system, ordering))
    return {
        (rows.place_name(row), rows.names[source], rows.names[target], tokens)
        for row, (source, target, tokens) in enumerate(
            zip(rows.source, rows.target, rows.tokens)
        )
    }


class TestMirrorsBuildTmg:
    def test_motivating_declaration_order(self, motivating):
        ordering = ChannelOrdering.declaration_order(motivating)
        assert _absint_places(motivating, ordering) == _tmg_places(
            motivating, ordering
        )

    def test_motivating_deadlock_ordering(self, motivating, deadlock_ordering):
        assert _absint_places(motivating, deadlock_ordering) == _tmg_places(
            motivating, deadlock_ordering
        )

    def test_buffered_split_places(self, feedback_system):
        ordering = ChannelOrdering.declaration_order(feedback_system)
        places = _absint_places(feedback_system, ordering)
        assert places == _tmg_places(feedback_system, ordering)
        names = {name for name, *_ in places}
        # The pre-loaded feedback channel uses the split (data/credit)
        # buffered model.
        assert "y/data" in names
        assert "y/credit" in names

    @settings(max_examples=50, deadline=None)
    @given(system=layered_systems())
    def test_random_layered_systems(self, system):
        ordering = ChannelOrdering.declaration_order(system)
        assert _absint_places(system, ordering) == _tmg_places(
            system, ordering
        )


class TestTokenAccounting:
    def test_data_plus_credit_is_effective_capacity(self, feedback_system):
        ordering = ChannelOrdering.declaration_order(feedback_system)
        ir = lower(feedback_system, ordering)
        places = build_tmg(feedback_system, ordering).tmg.places
        by_name = {p.name: p for p in places}
        for cid, channel in enumerate(ir.channels):
            if not ir.buffered[cid]:
                continue
            data = by_name[f"{channel}/data"]
            credit = by_name[f"{channel}/credit"]
            assert data.tokens == ir.initial_tokens[cid]
            assert (
                data.tokens + credit.tokens == ir.effective_capacities[cid]
            )

    def test_each_process_chain_carries_one_token(self, motivating):
        ordering = ChannelOrdering.declaration_order(motivating)
        tokens_by_process: dict[str, int] = {}
        for place in build_tmg(motivating, ordering).tmg.places:
            owner, _, rest = place.name.partition("/")
            if not rest or rest in ("data", "credit"):
                continue
            tokens_by_process[owner] = (
                tokens_by_process.get(owner, 0) + place.tokens
            )
        assert tokens_by_process
        assert all(total == 1 for total in tokens_by_process.values())
