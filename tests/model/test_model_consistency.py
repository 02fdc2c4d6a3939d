"""Cross-view consistency of the buffered (non-blocking) model.

``build_tmg`` yields one model in two views: the integer event graph every
analysis runs on (``SystemTmg.graph``) and the bipartite TMG decoded from
the same rows (``SystemTmg.tmg``).  On all-FIFO systems, where every
channel is split into put/get transitions with data and credit places,
both views must give the same cycle time as ``analyze_system``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import analyze_system, build_tmg
from repro.tmg import analyze
from tests.strategies import layered_systems


@settings(max_examples=25, deadline=None)
@given(system=layered_systems(max_layers=3, max_width=2),
       capacity=st.integers(1, 4))
def test_buffered_event_graph_equals_decoded_tmg(system, capacity):
    buffered = system.with_channel_capacities(
        {c.name: max(capacity, c.initial_tokens) for c in system.channels}
    )
    model = build_tmg(buffered)
    ct_graph = analyze(model.graph).cycle_time
    assert analyze(model.tmg).cycle_time == ct_graph
    assert analyze_system(buffered).cycle_time == ct_graph
