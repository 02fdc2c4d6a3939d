"""Witness decoding and replay — every DEADLOCKED verdict is checkable."""

import pytest

from repro.errors import SimulationDeadlock, VerificationError
from repro.sim import simulate
from repro.verify import Verdict, check_deadlock, replay_witness
from repro.verify.witness import replay_schedule


@pytest.fixture()
def deadlock_result(motivating, deadlock_ordering):
    result = check_deadlock(motivating, deadlock_ordering)
    assert result.verdict is Verdict.DEADLOCKED
    return result


class TestReplay:
    def test_witness_replays_into_its_deadlock(self, motivating,
                                               deadlock_ordering,
                                               deadlock_result):
        state = replay_witness(motivating, deadlock_ordering,
                               deadlock_result.witness)
        assert state == deadlock_result.witness.state

    def test_bogus_schedule_refuses_to_replay(self, motivating,
                                              deadlock_ordering,
                                              deadlock_result):
        witness = deadlock_result.witness
        # Repeating the first action cannot be enabled twice in a row
        # from the initial state of a rendezvous chain.
        bogus = (witness.schedule[0], witness.schedule[0])
        with pytest.raises(VerificationError):
            replay_schedule(motivating, deadlock_ordering, bogus)

    def test_simulator_reproduces_the_verified_deadlock(
        self, motivating, deadlock_ordering, deadlock_result
    ):
        """Acceptance: the witness is replayable on the *runtime* too.
        Enabled actions are never disabled in this model, so the timed
        simulator must fall into the same blocked configuration the
        checker proved reachable, whatever its schedule."""
        with pytest.raises(SimulationDeadlock) as exc:
            simulate(motivating, deadlock_ordering, iterations=10)
        assert exc.value.waiting is not None
        assert tuple(sorted(exc.value.waiting.items())) == (
            deadlock_result.witness.blocked
        )


class TestDecoding:
    def test_listing1_circular_wait_is_the_papers_ring(
        self, motivating, deadlock_ordering, deadlock_result
    ):
        """Section 2: P2 blocks on d, P6 on g, P5 on f.  The verifier's
        ring is exactly the paper's P2-d-P6-g-P5-f (EXPERIMENTS.md FIG2);
        the static witness of the same ordering is the token-free TMG
        cycle through d, f, P5 and g."""
        from repro.model import deadlock_cycle

        assert deadlock_result.witness.cycle == (
            "P2", "d", "P6", "g", "P5", "f"
        )
        assert deadlock_cycle(motivating, deadlock_ordering) == (
            "d", "f", "P5", "g"
        )

    def test_cycle_alternates_processes_and_channels(self, motivating,
                                                     deadlock_result):
        cycle = deadlock_result.witness.cycle
        assert len(cycle) % 2 == 0
        for i in range(0, len(cycle), 2):
            assert motivating.has_process(cycle[i])
            assert motivating.has_channel(cycle[i + 1])

    def test_cycle_members_are_blocked_on_their_cycle_channel(
        self, deadlock_result
    ):
        witness = deadlock_result.witness
        blocked = dict(witness.blocked)
        cycle = witness.cycle
        for i in range(0, len(cycle), 2):
            assert blocked[cycle[i]] == cycle[i + 1]

    def test_statements_explain_every_refusal(self, deadlock_result):
        witness = deadlock_result.witness
        assert len(witness.statements) == len(witness.cycle) // 2
        for statement in witness.statements:
            assert statement.kind in ("get", "put")
            assert 1 <= statement.index <= statement.total
            assert statement.waits_for  # the statement it insists on first

    def test_format_is_designer_readable(self, deadlock_result):
        text = deadlock_result.witness.format()
        assert "schedule (3 steps):" in text
        assert "blocked:" in text
        assert "circular wait:" in text
        assert "only after" in text  # BlockedStatement vocabulary

    def test_statement_vocabulary_matches_lint_witnesses(
        self, motivating, deadlock_ordering, deadlock_result
    ):
        """ERM201's structural witness and the checker's exhaustive one
        describe refusals in the same statement-indexed format."""
        from repro.lint.witness import BlockedStatement

        for statement in deadlock_result.witness.statements:
            assert isinstance(statement, BlockedStatement)
