"""FIG2 — Section 2 motivating example: the ordering space and its hazards.

Regenerates the narrative numbers of Fig. 2 / Section 2: the 36-ordering
space, the deadlocking Listing-1 order (with its circular wait), and the
classification of every ordering as deadlocking or live (with its cycle
time).  The benchmark times the exhaustive classification — the "many
simulations and repeated HLS tool runs" a designer would otherwise need.
"""

from repro.core import motivating_deadlock_ordering
from repro.model import deadlock_cycle
from repro.ordering import exhaustive_search
from repro.verify import check_deadlock

from conftest import print_table


def test_bench_fig2_order_space_classification(benchmark, motivating):
    result = benchmark(exhaustive_search, motivating)

    assert result.total_orderings == 36
    assert result.deadlocking_orderings == 14
    assert result.best_cycle_time == 12
    assert result.worst_cycle_time == 20

    listing1 = motivating_deadlock_ordering(motivating)
    static = deadlock_cycle(motivating, listing1)
    assert static is not None and set(static) >= {"d", "g", "f"}
    wait = check_deadlock(motivating, listing1).witness.cycle
    assert wait == ("P2", "d", "P6", "g", "P5", "f")

    benchmark.extra_info.update(
        {
            "orderings": result.total_orderings,
            "deadlocking": result.deadlocking_orderings,
            "live": result.live_orderings,
            "best_cycle_time": int(result.best_cycle_time),
            "worst_cycle_time": int(result.worst_cycle_time),
            "listing1_circular_wait": " -> ".join(wait),
            "listing1_static_witness": " -> ".join(static),
        }
    )
    print_table(
        "Fig. 2 / Section 2 (paper: 36 orderings, deadlock on Listing 1)",
        [
            ("orderings", 36, "reproduced", result.total_orderings),
            ("deadlocking", "-", "reproduced", result.deadlocking_orderings),
            ("circular wait", "P2-d-P6-g-P5-f", "reproduced",
             " -> ".join(wait)),
            ("static witness", "-", "token-free TMG cycle",
             " -> ".join(static)),
        ],
    )
