"""The array form's settle against the pure ascending visit.

:func:`repro.tmg.howard._settle` finishes an improvement sweep after its
Jacobi pass: a few vector waves relax the descending edges, then an
ascending visit starts from the nodes still moving.  Descending edges
form a DAG, so every relaxation order reaches one fixpoint, the one the
in-order visit alone reaches (:mod:`tests.tmg.settle_reference`).  Here
the two must leave identical values on every call Howard makes on large
designs, and on random descending DAGs with any wave count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synthetic_soc
from repro.model.build import build_tmg
from repro.ordering import channel_ordering
from repro.tmg import build_event_graph, howard
from repro.workloads import generate

from tests.tmg.settle_reference import settle_reference


def event_graph(system):
    return build_event_graph(build_tmg(system, channel_ordering(system)).tmg)


def check_settle(value, moved, down_start, down_source, flags, down_weight):
    """Run ``_settle`` and the reference on copies of one call's inputs;
    assert equal values and all-zero flags after."""
    want = value.copy()
    pending = bytearray(len(value))
    for t in moved.tolist():
        pending[t] = 1
    settle_reference(want, down_start, down_source, down_weight, pending)
    got = value.copy()
    howard._settle(got, moved, down_start, down_source, flags, down_weight)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert not any(flags)


DESIGNS = {
    "synthetic_soc(2000)": lambda: synthetic_soc(2000, seed=0),
    "noc-torus 10": lambda: generate("noc-torus", seed=0, size=10).system,
    "noc-torus 16": lambda: generate("noc-torus", seed=0, size=16).system,
    "bursty-soc 300": lambda: generate("bursty-soc", seed=0, size=300).system,
    "ofdm-rx 120": lambda: generate("ofdm-rx", seed=0, size=120).system,
}


@pytest.mark.parametrize("design", list(DESIGNS))
def test_recorded_calls_match_the_ordered_visit(design):
    # Every design here has an SCC above the cut-over, so Howard runs the
    # array form; each recorded call is replayed on both finishes.
    graph = event_graph(DESIGNS[design]())
    calls = []
    settle = howard._settle

    def record(value, moved, *rest):
        calls.append((value.copy(), moved.copy(), *rest))
        settle(value, moved, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(howard, "_settle", record)
        howard._maximum_cycle_ratio(graph)
    assert calls
    for value, moved, down_start, down_source, flags, down_weight in calls:
        check_settle(value, moved, down_start, down_source, flags, down_weight)


@pytest.mark.parametrize("design", ["noc-torus 16", "bursty-soc 300"])
def test_list_and_array_forms_agree(design):
    graph = event_graph(DESIGNS[design]())
    with pytest.MonkeyPatch.context() as patch:
        arrays = howard._maximum_cycle_ratio(graph)
        patch.setattr(howard, "_ARRAY_MIN_NODES", len(graph.names) + 1)
        lists = howard._maximum_cycle_ratio(graph)
    assert arrays == lists


@st.composite
def descending_dags(draw):
    """A reverse CSR of random descending edges ``u → t`` (``t < u``),
    Jacobi values, edge weights and a non-empty changed set."""
    n = draw(st.integers(2, 60))
    edges = draw(
        st.lists(
            st.tuples(st.integers(1, n - 1), st.integers(0, n - 2)).map(
                lambda e: (e[0], min(e[1], e[0] - 1))
            ),
            max_size=4 * n,
        )
    )
    edges.sort(key=lambda e: e[1])  # by target, stably
    down_start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(
        np.bincount([t for _, t in edges], minlength=n), out=down_start[1:]
    )
    down_source = np.array([u for u, _ in edges], dtype=np.int32)
    ranks = draw(st.booleans())  # the first criterion: int32, no weights
    values = st.integers(0, 5) if ranks else st.integers(-50, 50)
    value = np.array(
        draw(st.lists(values, min_size=n, max_size=n)),
        dtype=np.int32 if ranks else np.int64,
    )
    weights = st.just(0) if ranks else st.integers(-20, 20)
    down_weight = np.array(
        draw(st.lists(weights, min_size=len(edges), max_size=len(edges))),
        dtype=np.int64,
    )
    moved = np.array(
        sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.intp
    )
    return value, moved, down_start, down_source, down_weight


@settings(max_examples=300, deadline=None)
@given(
    dag=descending_dags(),
    waves=st.integers(0, 6),
    wave_min=st.sampled_from([1, 4, howard._WAVE_MIN_NODES]),
)
def test_random_descending_dags(dag, waves, wave_min):
    value, moved, down_start, down_source, down_weight = dag
    flags = bytearray(len(value))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(howard, "_WAVES", waves)
        patch.setattr(howard, "_WAVE_MIN_NODES", wave_min)
        check_settle(value, moved, down_start, down_source, flags, down_weight)
