"""Scalability study (Section 6): synthetic SoCs up to 10,000 processes.

Regenerates the paper's scalability experiment: random systems "with
characteristics similar to those of the MPEG-2, including the presence of
feedback loops and reconvergent paths", swept in size while timing the two
operations the methodology performs per iteration — Algorithm 1 ordering
and the TMG performance analysis.  The paper reports "a few minutes in
the worst cases"; this implementation takes seconds.

Run:  python examples/scalability_study.py [--full]
      (--full includes the 10,000-process point; default stops at 2,000)
"""

import sys
import time

from repro import analyze_system, channel_ordering, synthetic_soc


def sweep(sizes) -> None:
    print(f"{'processes':>10} {'channels':>10} {'order (s)':>10} "
          f"{'analyze (s)':>12} {'cycle time':>12}")
    for size in sizes:
        system = synthetic_soc(size, seed=0)
        start = time.perf_counter()
        ordering = channel_ordering(system)
        t_order = time.perf_counter() - start
        start = time.perf_counter()
        performance = analyze_system(system, ordering)
        t_analyze = time.perf_counter() - start
        print(f"{len(system.workers()):>10} {len(system.channels):>10} "
              f"{t_order:>10.3f} {t_analyze:>12.3f} "
              f"{float(performance.cycle_time):>12.0f}")


def main() -> None:
    sizes = [100, 500, 1000, 2000]
    if "--full" in sys.argv:
        sizes += [5000, 10000]
    sweep(sizes)
    if "--full" not in sys.argv:
        print("\n(re-run with --full for the paper's 10,000-process point)")


if __name__ == "__main__":
    main()
