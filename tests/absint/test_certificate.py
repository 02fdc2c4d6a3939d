"""Issue/check lifecycle of the deadlock-freedom certificate."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.absint import CertificateError, analyze_ir, check_certificate
from repro.absint.certificate import (
    CERTIFICATE_VERSION,
    METHOD_SIPHON_RANKING,
    DeadlockFreedomCertificate,
    issue_certificate,
)
from repro.ir import lower


@pytest.fixture()
def live_ir(motivating, optimal_ordering):
    return lower(motivating, optimal_ordering)


@pytest.fixture()
def dead_ir(motivating, deadlock_ordering):
    return lower(motivating, deadlock_ordering)


class TestIssue:
    def test_live_configuration_is_certified(self, live_ir):
        certificate = issue_certificate(live_ir)
        assert certificate is not None
        assert certificate.ir_hash == live_ir.structural_hash
        assert certificate.system_name == live_ir.system_name
        assert certificate.method == METHOD_SIPHON_RANKING
        assert certificate.version == CERTIFICATE_VERSION

    def test_check_accepts_a_fresh_certificate(self, live_ir):
        certificate = issue_certificate(live_ir)
        assert certificate is not None
        check_certificate(live_ir, certificate)  # must not raise

    def test_deadlocked_configuration_is_refused(self, dead_ir):
        assert issue_certificate(dead_ir) is None

    def test_exactly_one_of_certificate_and_cycle(self, live_ir, dead_ir):
        live, dead = analyze_ir(live_ir), analyze_ir(dead_ir)
        assert live.certificate is not None and live.token_free_cycle is None
        assert dead.certificate is None
        assert dead.token_free_cycle is not None
        assert len(dead.token_free_cycle) >= 2

    def test_ranks_are_deterministic(self, live_ir):
        first = issue_certificate(live_ir)
        second = issue_certificate(live_ir)
        assert first == second


class TestCheckRejects:
    def test_certificate_for_a_different_ir(
        self, live_ir, motivating, suboptimal_ordering
    ):
        other = lower(motivating, suboptimal_ordering)
        certificate = issue_certificate(other)
        assert certificate is not None
        with pytest.raises(CertificateError, match="issued for IR"):
            check_certificate(live_ir, certificate)

    def test_tampered_ranking(self, live_ir):
        certificate = issue_certificate(live_ir)
        assert certificate is not None
        top = len(certificate.ranks) - 1
        inverted = dataclasses.replace(
            certificate,
            ranks=tuple(
                (name, top - rank) for name, rank in certificate.ranks
            ),
        )
        with pytest.raises(CertificateError, match="not a valid ranking"):
            check_certificate(live_ir, inverted)

    def test_missing_transition_rank(self, live_ir):
        certificate = issue_certificate(live_ir)
        assert certificate is not None
        truncated = dataclasses.replace(
            certificate, ranks=certificate.ranks[1:]
        )
        with pytest.raises(CertificateError, match="assigns no rank"):
            check_certificate(live_ir, truncated)

    def test_unknown_version(self, live_ir):
        certificate = issue_certificate(live_ir)
        assert certificate is not None
        stale = dataclasses.replace(certificate, version="cert:v0")
        with pytest.raises(CertificateError, match="version"):
            check_certificate(live_ir, stale)

    def test_unknown_method(self, live_ir):
        certificate = issue_certificate(live_ir)
        assert certificate is not None
        bogus = dataclasses.replace(certificate, method="oracle")
        with pytest.raises(CertificateError, match="method"):
            check_certificate(live_ir, bogus)


class TestSerialization:
    def test_roundtrip_preserves_validity(self, live_ir):
        certificate = issue_certificate(live_ir)
        assert certificate is not None
        again = DeadlockFreedomCertificate.from_dict(certificate.to_dict())
        assert again == certificate
        check_certificate(live_ir, again)

    def test_document_is_json_serializable(self, live_ir):
        certificate = issue_certificate(live_ir)
        assert certificate is not None
        document = json.loads(json.dumps(certificate.to_dict()))
        check_certificate(
            live_ir, DeadlockFreedomCertificate.from_dict(document)
        )

    def test_malformed_document_is_rejected(self):
        with pytest.raises(CertificateError, match="malformed"):
            DeadlockFreedomCertificate.from_dict({"version": "cert:v1"})

    def test_non_object_ranks_are_rejected(self):
        with pytest.raises(CertificateError, match="malformed"):
            DeadlockFreedomCertificate.from_dict(
                {
                    "ir_hash": "x",
                    "system": "s",
                    "method": METHOD_SIPHON_RANKING,
                    "version": CERTIFICATE_VERSION,
                    "ranks": ["not", "a", "mapping"],
                }
            )
