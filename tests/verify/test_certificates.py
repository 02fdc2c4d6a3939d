"""The absint certificate beside the search: the certificate that
:func:`repro.absint.analyze_ir` issues validates exactly where the
exhaustive search proves deadlock freedom, and a tampered one is
refused."""

from __future__ import annotations

import dataclasses

import pytest

from repro.absint import CertificateError, analyze_ir, check_certificate
from repro.errors import DeadlockError
from repro.ir import lower
from repro.mpeg2 import build_mpeg2_system
from repro.ordering import channel_ordering
from repro.verify import Verdict, check_deadlock
from repro.verify.checker import verify_ordering, is_small_system


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
        ir = lower(mpeg2, mpeg2_ordering)
        certificate = analyze_ir(ir).certificate
        assert certificate is not None
        check_certificate(ir, certificate)  # must not raise

    def test_analyzed_certificate_with_tampered_ranking_is_rejected(
        self, motivating, optimal_ordering
    ):
        ir = lower(motivating, optimal_ordering)
        certificate = analyze_ir(ir).certificate
        assert certificate is not None
        top = len(certificate.ranks) - 1
        inverted = dataclasses.replace(
            certificate,
            ranks=tuple(
                (name, top - rank) for name, rank in certificate.ranks
            ),
        )
        with pytest.raises(CertificateError, match="not a valid ranking"):
            check_certificate(ir, inverted)

    def test_analyzed_certificate_for_another_ir_is_rejected(
        self, motivating, optimal_ordering, suboptimal_ordering
    ):
        other = lower(motivating, suboptimal_ordering)
        certificate = analyze_ir(other).certificate
        assert certificate is not None
        with pytest.raises(CertificateError, match="issued for IR"):
            check_certificate(lower(motivating, optimal_ordering), certificate)


class TestFallThrough:
    def test_default_path_still_searches(self, motivating, optimal_ordering):
        result = check_deadlock(motivating, optimal_ordering)
        assert result.verdict is Verdict.DEADLOCK_FREE
        assert result.states_explored > 0

    def test_uncertifiable_configurations_fall_back_to_bfs(
        self, motivating, deadlock_ordering
    ):
        assert analyze_ir(lower(motivating, deadlock_ordering)).certificate \
            is None
        result = check_deadlock(motivating, deadlock_ordering)
        assert result.verdict is Verdict.DEADLOCKED
        assert result.witness is not None
        assert result.states_explored > 0

    def test_strict_form_still_raises_on_deadlock(
        self, motivating, deadlock_ordering
    ):
        with pytest.raises(DeadlockError):
            verify_ordering(motivating, deadlock_ordering)

    def test_fast_path_and_search_agree(self, motivating, optimal_ordering):
        searched = check_deadlock(motivating, optimal_ordering)
        ir = lower(motivating, optimal_ordering)
        certificate = analyze_ir(ir).certificate
        assert certificate is not None
        check_certificate(ir, certificate)
        assert searched.verdict is Verdict.DEADLOCK_FREE
