"""Property: the exhaustive checker and the structural TMG test agree.

On rendezvous-only systems (capacity 0, no initial tokens in the
forward DAG) the paper's structural criterion — deadlock iff the
token-free TMG subgraph has a cycle — is exact, so the explicit-state
search must reproduce its verdict on *every* system and *every*
ordering.  These properties quantify that agreement over hundreds of
random systems; a single disagreement is a bug in one of the engines
(the same invariant ERM502 guards in production).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceeded
from repro.model import deadlock_cycle
from repro.ordering import channel_ordering
from repro.verify import Verdict, check_deadlock, verify_ordering
from tests.strategies import (
    layered_systems,
    random_orderings,
    small_replicated_families,
)


@settings(max_examples=80, deadline=None)
@given(system=layered_systems(feedback=False))
def test_checker_agrees_with_structural_on_declaration_order(system):
    structural_dead = deadlock_cycle(system, None) is not None
    result = check_deadlock(system)
    assert result.conclusive, result.reason
    assert result.deadlocked == structural_dead


@settings(max_examples=120, deadline=None)
@given(data=st.data(), system=layered_systems(feedback=False))
def test_checker_agrees_with_structural_on_random_orderings(data, system):
    ordering = data.draw(random_orderings(system))
    structural_dead = deadlock_cycle(system, ordering) is not None
    result = check_deadlock(system, ordering)
    assert result.conclusive, result.reason
    assert result.deadlocked == structural_dead
    if result.deadlocked:
        # Every deadlock verdict ships a decodable, replayable witness.
        from repro.verify import replay_witness

        replay_witness(system, ordering, result.witness)


@settings(max_examples=25, deadline=None)
@given(system=layered_systems(feedback=False))
def test_quotient_agrees_with_plain_on_layered_systems(system):
    """Symmetry reduction never changes the verdict (mostly trivial
    groups here — the reduction must be a sound no-op)."""
    plain = check_deadlock(system)
    quotient = check_deadlock(system, sym=True)
    assert plain.conclusive and quotient.conclusive
    assert quotient.deadlocked == plain.deadlocked


#: Largest replicated family whose naive (no stubborn sets) leg runs: the
#: unreduced state space grows exponentially with the family, and above
#: this size that leg dominated the whole tier-1 run.
NO_POR_MAX_PROCESSES = 9


@settings(max_examples=15, deadline=None)
@given(system=small_replicated_families())
def test_quotient_agrees_with_plain_on_replicated_families(system):
    """On genuinely symmetric designs the quotient search explores a
    subset of the states but must reach the same verdict, with stubborn
    sets at every size and without them up to NO_POR_MAX_PROCESSES."""
    for por in (True, False):
        if not por and len(system.processes) > NO_POR_MAX_PROCESSES:
            continue
        plain = check_deadlock(system, por=por)
        quotient = check_deadlock(system, por=por, sym=True)
        assert plain.conclusive and quotient.conclusive, (
            plain.reason,
            quotient.reason,
        )
        assert quotient.deadlocked == plain.deadlocked
        if quotient.deadlocked:
            # Witnesses found at orbit representatives pull back through
            # the automorphism trail to concrete, replayable schedules.
            from repro.verify import replay_witness

            replay_witness(system, None, quotient.witness)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), system=small_replicated_families())
def test_quotient_witnesses_replay_on_shuffled_orderings(data, system):
    ordering = data.draw(random_orderings(system))
    plain = check_deadlock(system, ordering)
    quotient = check_deadlock(system, ordering, sym=True)
    assert plain.conclusive and quotient.conclusive
    assert quotient.deadlocked == plain.deadlocked
    if quotient.deadlocked:
        from repro.verify import replay_witness

        replay_witness(system, ordering, quotient.witness)


@settings(max_examples=60, deadline=None)
@given(system=layered_systems(feedback=False))
def test_algorithm_1_output_always_verifies_deadlock_free(system):
    """The machine-checked form of the paper's central guarantee."""
    ordering = channel_ordering(system)
    try:
        result = verify_ordering(system, ordering)
    except BudgetExceeded:  # pragma: no cover - budget is ample here
        return
    assert result.verdict is Verdict.DEADLOCK_FREE
