"""Round-trip every artifact kind through the store, plus a Hypothesis
property over arbitrary picklable payloads.

One concrete artifact per registered kind, plus the other pipeline
results a store caller may file:

- ``analysis``     — :class:`repro.model.SystemPerformance` from the engine
- ``verify``       — :class:`repro.verify.VerificationResult`
- ``pareto``       — a sweep frontier summary
- ``certificate``  — an abstract-interpretation deadlock-freedom certificate
  (no conventional kind; the store accepts any ``[a-z0-9_]+`` token)
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import ARTIFACT_KINDS, ArtifactStore, params_digest


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def ir_hash(motivating, optimal_ordering):
    from repro.ir import lower

    return lower(motivating, optimal_ordering).structural_hash


def test_every_kind_is_exercised_here():
    # Keep this file honest: a new artifact kind must add a round-trip.
    # These are exactly the kinds a layer in src/ writes: PerformanceEngine
    # ("analysis"), the explorer's verification memo ("verify") and
    # sweep_targets ("pareto").
    assert set(ARTIFACT_KINDS) == {"analysis", "verify", "pareto"}


def test_analysis_round_trip(store, motivating, optimal_ordering, ir_hash):
    from repro.perf import PerformanceEngine

    performance = PerformanceEngine().analyze(motivating, optimal_ordering)
    digest = params_digest({"op": "analysis"})
    store.put(ir_hash, "analysis", digest, performance)
    loaded = store.get(ir_hash, "analysis", digest)
    assert loaded == performance
    assert loaded.cycle_time == performance.cycle_time
    assert isinstance(loaded.cycle_time, Fraction)


def test_verify_round_trip(store, motivating, optimal_ordering, ir_hash):
    from repro.verify import check_deadlock

    verdict = check_deadlock(motivating, optimal_ordering)
    digest = params_digest({"op": "verify", "por": True})
    store.put(ir_hash, "verify", digest, verdict)
    loaded = store.get(ir_hash, "verify", digest)
    assert loaded == verdict
    assert loaded.verdict == verdict.verdict


def test_certificate_round_trip(
    store, motivating, optimal_ordering, ir_hash
):
    from repro.absint import analyze

    certificate = analyze(motivating, optimal_ordering).certificate
    assert certificate is not None, (
        "the optimal ordering of the motivating example is deadlock-free "
        "and the abstract interpreter is expected to certify it"
    )
    digest = params_digest({"op": "certificate"})
    store.put(ir_hash, "certificate", digest, certificate)
    loaded = store.get(ir_hash, "certificate", digest)
    assert loaded == certificate


def test_pareto_round_trip(store, ir_hash):
    frontier = (
        {
            "target_cycle_time": Fraction(40),
            "cycle_time": Fraction(27),
            "area": 52.0,
            "feasible": True,
            "measured_cycle_time": Fraction(27),
        },
        {
            "target_cycle_time": Fraction(30),
            "cycle_time": Fraction(27),
            "area": 64.0,
            "feasible": True,
            "measured_cycle_time": None,
        },
    )
    digest = params_digest({"op": "pareto", "targets": ("30", "40")})
    store.put(ir_hash, "pareto", digest, frontier)
    assert store.get(ir_hash, "pareto", digest) == frontier


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.fractions(),
    st.text(max_size=20),
)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ARTIFACT_KINDS), payload=_payloads)
def test_any_picklable_payload_round_trips(tmp_path_factory, kind, payload):
    store = ArtifactStore(tmp_path_factory.mktemp("hyp-store"))
    ir_hash = "12" * 32
    digest = params_digest({"payload": repr(payload)})
    store.put(ir_hash, kind, digest, payload)
    assert store.get(ir_hash, kind, digest) == payload
