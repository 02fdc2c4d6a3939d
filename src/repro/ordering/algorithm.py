"""Algorithm 1: deadlock-free, throughput-optimizing channel ordering.

The three steps (Forward Labeling, Backward Labeling, Final Ordering)
produce, in ``O(|E| log |E|)``, a statement order for every process:

* **gets** sorted by *ascending* head weight — read first from the channel
  that ends the path with the smallest aggregate latency, because its data
  arrives first;
* **puts** sorted by *descending* tail weight — write first to the channel
  that starts the path with the largest remaining aggregate latency,
  because its consumer chain needs the data soonest;
* ties broken by *ascending* timestamps, which the paper notes is required
  to avoid deadlock on symmetric structures (two processes that tie on
  weights must resolve their mutual channels in a consistent global order;
  the traversal timestamps provide exactly that order).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import ChannelOrdering, SystemGraph
from repro.obs.metrics import active, count, timed
from repro.ordering.labeling import (
    LabelingResult,
    backward_labeling,
    forward_labeling,
)


@dataclass(frozen=True)
class OrderingOutcome:
    """Result of Algorithm 1: the ordering plus the labels that justify it."""

    ordering: ChannelOrdering
    labels: LabelingResult


def channel_ordering(
    system: SystemGraph,
    initial_ordering: ChannelOrdering | None = None,
) -> ChannelOrdering:
    """Compute the optimized channel ordering of a system (Algorithm 1).

    With a registry active (:func:`repro.obs.collect`), each run records
    the stable ``ordering.*`` counters and timer (runs, labeling time,
    processes whose statement order changed — the algorithm's "swaps")
    documented in ``docs/OBSERVABILITY.md``.

    Args:
        system: System with current process latencies (from the selected
            HLS micro-architectures) and channel latencies.
        initial_ordering: The order in which Forward Labeling considers the
            put statements of each process — "an order given by the
            designer or the suboptimal of Section 2".  Defaults to the
            declaration order.  The *result* does not depend on this order
            except through timestamp tie-breaks.

    Raises:
        DeadlockError: The system contains a dependency cycle with no
            pre-loaded data; no ordering can make it live.
    """
    count("ordering.runs")
    with timed("ordering.label"):
        ordering = channel_ordering_with_labels(system, initial_ordering).ordering
    if active() is not None:  # the diff walks every process
        initial = initial_ordering or ChannelOrdering.declaration_order(system)
        count("ordering.changed_processes", len(ordering.differs_from(initial)))
    return ordering


def channel_ordering_with_labels(
    system: SystemGraph,
    initial_ordering: ChannelOrdering | None = None,
) -> OrderingOutcome:
    """:func:`channel_ordering`, additionally exposing the arc labels
    (useful for reports, tests, and the worked example of Fig. 4)."""
    if initial_ordering is None:
        initial_ordering = ChannelOrdering.declaration_order(system)
    else:
        initial_ordering.validate(system)

    labels = forward_labeling(system, initial_ordering)
    labels = backward_labeling(system, labels)
    ordering = final_ordering(system, labels)
    return OrderingOutcome(ordering=ordering, labels=labels)


def final_ordering(
    system: SystemGraph, labels: LabelingResult
) -> ChannelOrdering:
    """Final Ordering step (Algorithm 1, lines 24–34)."""
    gets: dict[str, tuple[str, ...]] = {}
    puts: dict[str, tuple[str, ...]] = {}
    for process in system.processes:
        in_arcs = sorted(
            system.input_channels(process.name),
            key=lambda name: (
                labels.of(name).head_weight,
                labels.of(name).head_timestamp,
            ),
        )
        out_arcs = sorted(
            system.output_channels(process.name),
            key=lambda name: (
                -labels.of(name).tail_weight,
                labels.of(name).tail_timestamp,
            ),
        )
        gets[process.name] = tuple(in_arcs)
        puts[process.name] = tuple(out_arcs)
    ordering = ChannelOrdering(gets=gets, puts=puts)
    ordering.validate(system)
    return ordering
