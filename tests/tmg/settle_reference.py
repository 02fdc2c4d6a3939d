"""Reference finish of the array form's improvement sweep.

This is the pure ascending visit :func:`repro.tmg.howard._settle` ran
alone before it relaxed in vector waves first, kept as the oracle that
the waves reach the same values (``tests/tmg/test_howard_settle.py``).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt


def settle_reference(
    value: npt.NDArray[np.signedinteger[Any]],
    down_start: npt.NDArray[np.intp],
    down_source: npt.NDArray[np.int32],
    down_weight: npt.NDArray[np.int64],
    pending: bytearray,
) -> None:
    """Finish an in-order sweep after its Jacobi pass.

    ``pending`` flags the nodes whose value changed.  Visiting them in
    ascending order, each raises its descending predecessors ``u`` (edges
    ``u → t`` with ``t < u``, the reverse CSR ``down_*``) to at least its
    value plus the edge's weight, and flags those it raised.  A node is
    visited after every smaller one, so its value is final by then and it
    is visited once: the sweep's own order, restricted to where values
    move.
    """
    values = value.data
    start = down_start.data
    source = down_source.data
    weight = down_weight.data
    t = pending.find(1)
    while t >= 0:
        offer = values[t]
        for k in range(start[t], start[t + 1]):
            u = source[k]
            candidate = offer + weight[k]
            if candidate > values[u]:
                values[u] = candidate
                pending[u] = 1
        t = pending.find(1, t + 1)
