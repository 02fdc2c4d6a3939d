"""Certificate-backed verification: zero-state proofs beyond BFS scale."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError
from repro.mpeg2 import build_mpeg2_system
from repro.obs import collect
from repro.ordering import channel_ordering
from repro.verify import Verdict, check_deadlock, verify_ordering
from repro.verify.checker import is_small_system


@pytest.fixture(scope="module")
def mpeg2():
    return build_mpeg2_system()


@pytest.fixture(scope="module")
def mpeg2_ordering(mpeg2):
    return channel_ordering(mpeg2)


class TestCertificateFastPath:
    def test_mpeg2_is_beyond_the_small_system_limit(self, mpeg2):
        assert not is_small_system(mpeg2)

    def test_mpeg2_verifies_without_search(self, mpeg2, mpeg2_ordering):
        result = verify_ordering(mpeg2, mpeg2_ordering, use_certificate=True)
        assert result.verdict is Verdict.DEADLOCK_FREE
        assert result.states_explored == 0
        assert result.transitions_fired == 0
        assert "certificate" in result.reason

    def test_certificate_makes_budgets_irrelevant(
        self, mpeg2, mpeg2_ordering
    ):
        # A two-state budget would be instantly INCONCLUSIVE under BFS;
        # the validated certificate never touches it.
        result = verify_ordering(
            mpeg2, mpeg2_ordering, use_certificate=True, budget_states=2
        )
        assert result.verdict is Verdict.DEADLOCK_FREE

    def test_accepted_certificates_are_counted(
        self, motivating, optimal_ordering
    ):
        with collect() as metrics:
            result = check_deadlock(
                motivating, optimal_ordering, use_certificate=True
            )
        assert result.states_explored == 0
        assert metrics.counter("verify.certificates.accepted").value == 1
        assert metrics.counter("verify.runs").value == 1


class TestFallThrough:
    def test_default_path_still_searches(self, motivating, optimal_ordering):
        result = check_deadlock(motivating, optimal_ordering)
        assert result.verdict is Verdict.DEADLOCK_FREE
        assert result.states_explored > 0

    def test_uncertifiable_configurations_fall_back_to_bfs(
        self, motivating, deadlock_ordering
    ):
        result = check_deadlock(
            motivating, deadlock_ordering, use_certificate=True
        )
        assert result.verdict is Verdict.DEADLOCKED
        assert result.witness is not None
        assert result.states_explored > 0

    def test_strict_form_still_raises_on_deadlock(
        self, motivating, deadlock_ordering
    ):
        with pytest.raises(DeadlockError):
            verify_ordering(
                motivating, deadlock_ordering, use_certificate=True
            )

    def test_fast_path_and_search_agree(self, motivating, optimal_ordering):
        searched = check_deadlock(motivating, optimal_ordering)
        certified = check_deadlock(
            motivating, optimal_ordering, use_certificate=True
        )
        assert searched.verdict is certified.verdict is Verdict.DEADLOCK_FREE
