"""Final Ordering: the integer sort keys and the permutation guarantee.

:func:`repro.ordering.channel_ordering` sorts each process's arcs by one
integer key per arc and does not validate its result.  Two checks stand
in for the tuple sort and the runtime ``validate`` they replaced:

* every result is a permutation of each process's ports and lowers,
  with and without a caller's initial ordering, on the shipped designs,
  MPEG-2, the five generated families and a 2,000-process SoC;
* the orderings equal the two-pass reference
  (``tests/ordering/labeling_reference.py``) on inputs where weights
  tie, so that only the timestamps separate arcs.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.core import (
    ChannelOrdering,
    load_system,
    synthetic_soc,
    system_from_dict,
    system_to_dict,
)
from repro.core.system import SystemGraph
from repro.dsl import pipe, replicate, sink_stage, stage
from repro.dsl import testbenched as close_ports
from repro.ir import lower
from repro.mpeg2 import build_mpeg2_system
from repro.ordering import channel_ordering
from repro.workloads import FAMILIES, generate
from tests.ordering.labeling_reference import reference_ordering_with_labels

DESIGNS = Path(__file__).resolve().parents[2] / "examples" / "designs"


def shuffled(system: SystemGraph, seed: int) -> ChannelOrdering:
    """Every process's gets and puts in a seeded random order."""
    rng = random.Random(seed)

    def shuffle(channels: tuple[str, ...]) -> tuple[str, ...]:
        order = list(channels)
        rng.shuffle(order)
        return tuple(order)

    return ChannelOrdering(
        gets={p: shuffle(system.input_channels(p)) for p in system.process_names},
        puts={p: shuffle(system.output_channels(p)) for p in system.process_names},
    )


def _inputs():
    """``key -> builder`` of the permutation property's inputs."""
    inputs = {
        path.stem: lambda path=path: load_system(path)
        for path in sorted(DESIGNS.glob("*.json"))
        if not path.name.endswith(".ordering.json")
    }
    inputs["mpeg2"] = build_mpeg2_system
    for family in FAMILIES:
        for seed in range(3):
            inputs[f"{family}-{seed}"] = (
                lambda family=family, seed=seed: generate(family, seed=seed).system
            )
    inputs["synthetic_soc(2000)"] = lambda: synthetic_soc(2_000, seed=0)
    return inputs


INPUTS = _inputs()


@pytest.mark.parametrize("key", list(INPUTS))
def test_result_is_a_permutation_that_lowers(key):
    system = INPUTS[key]()
    for initial in (None, shuffled(system, 0)):
        ordering = channel_ordering(system, initial)
        ordering.validate(system)
        assert list(ordering.gets) == list(system.process_names)
        assert list(ordering.puts) == list(system.process_names)
        lower(system, ordering)


def flat_latency(system: SystemGraph) -> SystemGraph:
    """``system`` with every process latency 0 and every channel latency
    1 (the least a channel may have): weights then only count arcs, and
    arcs of one vertex tie wherever their far ends sit equally deep."""
    document = system_to_dict(system)
    for process in document["processes"]:
        process["latency"] = 0
    for channel in document["channels"]:
        channel["latency"] = 1
    return system_from_dict(document)


def gathered_lanes(k: int) -> SystemGraph:
    """``k`` equal lanes, declared as one family, into one shared sink."""
    return close_ports(
        pipe(
            replicate(k, lambda i: stage(f"w{i}", latency=3), family="lanes"),
            sink_stage("gather", inputs=k),
        )
    ).build(name="gathered")


def _tie_heavy():
    """``key -> builder`` of inputs whose arcs tie on weight."""
    inputs = {}
    for family, size in (("noc-torus", 3), ("noc-torus", 4), ("butterfly", 3)):
        for seed in range(2):
            def build(family=family, seed=seed, size=size):
                return generate(family, seed=seed, size=size).system

            inputs[f"{family}:{size}-{seed}"] = build
            inputs[f"{family}:{size}-{seed}-flat"] = (
                lambda build=build: flat_latency(build())
            )
    inputs["ofdm-rx:6"] = lambda: generate("ofdm-rx", seed=0, size=6).system
    inputs["gathered-lanes"] = lambda: gathered_lanes(5)
    inputs["mpeg2-flat"] = lambda: flat_latency(build_mpeg2_system())
    inputs["synthetic_soc(300)-flat"] = (
        lambda: flat_latency(synthetic_soc(300, seed=1))
    )
    return inputs


TIE_HEAVY = _tie_heavy()


def _tied_arcs(system, ordering, labels) -> int:
    """Adjacent gets or puts of one process whose weights tie."""
    tied = 0
    for process in system.process_names:
        heads = [labels.head(c)[0] for c in ordering.gets_of(process)]
        tails = [labels.tail(c)[0] for c in ordering.puts_of(process)]
        for weights in (heads, tails):
            tied += sum(a == b for a, b in zip(weights, weights[1:]))
    return tied


@pytest.mark.parametrize("key", list(TIE_HEAVY))
def test_integer_keys_match_the_reference_on_ties(key):
    system = TIE_HEAVY[key]()
    for initial in (None, shuffled(system, 1)):
        want, labels = reference_ordering_with_labels(system, initial)
        got = channel_ordering(system, initial)
        assert list(got.gets.items()) == list(want.gets.items())
        assert list(got.puts.items()) == list(want.puts.items())
        # The input exercises the timestamp half of the key.
        assert _tied_arcs(system, want, labels) > 0
