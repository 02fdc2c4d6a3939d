"""Seeded streaming workload families built on the composition layer.

Every generator here is a pure function of ``(seed, size)``: the same
pair always elaborates to the same :class:`~repro.core.system.SystemGraph`
(same names, same declaration order, same structural hash), so a workload
name like ``ofdm-rx-s4-seed7`` is a stable identity that tests and
benchmarks can key on.

The families cover the communication patterns the paper's flow is built
for:

* ``ofdm-rx`` — an OFDM receiver front end (sync/CFO/FFT) fanning out
  into per-subcarrier equalize+demodulate lanes, the canonical
  "replicated accelerator behind identical latency-insensitive
  interfaces" shape;
* ``rate-converter`` — a seeded multirate SDF chain expanded through
  :func:`repro.dsl.streaming_design`, exercising the repetition-vector
  expansion and serialization channels;
* ``noc-torus`` — a wrapped mesh fabric whose row/column translation
  symmetry is *declared* (cyclic families) rather than rediscovered;
* ``butterfly`` — a :math:`2^k`-lane butterfly network with its XOR
  bit-flip families declared per stage bit;
* ``bursty-soc`` — the layered synthetic SoC with seeded bursty FIFO
  deepening, the stress shape for buffer sizing and verification.

Because the DSL records replication at construction time, every workload
that replicates hardware ships its families to ERM701 and the
orbit-deduped explorer for free (declared, not rediscovered).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.core.system import SystemGraph
from repro.dsl import (
    Wire,
    butterfly,
    mesh,
    parallel,
    pipe,
    rate_chain,
    sink_stage,
    source_stage,
    stage,
    streaming_design,
    testbenched,
)
from repro.errors import ValidationError

#: Expansion budget for ``rate-converter``: rate tuples are redrawn (from
#: the same deterministic stream) until the repetition vector's total
#: instance count fits, so a hostile seed cannot explode the expansion.
_MAX_SDF_INSTANCES = 48

#: Rate pairs the converter draws from — small, mixed up/down ratios so
#: chains stay consistent and the repetition vector stays interesting
#: without growing multiplicatively out of the budget.
_RATE_MENU: tuple[tuple[int, int], ...] = (
    (1, 1),
    (1, 2),
    (2, 1),
    (2, 3),
    (3, 2),
    (1, 3),
    (3, 1),
)


@dataclass(frozen=True)
class Workload:
    """One generated design plus the provenance that regenerates it."""

    name: str
    family: str
    seed: int
    size: int
    system: SystemGraph
    description: str


def _ofdm_rx(seed: int, size: int) -> tuple[SystemGraph, str]:
    """OFDM receiver: front-end chain, ``size`` subcarrier lanes, merge.

    The per-lane latencies are drawn once and shared by every lane —
    replicated hardware is identical hardware — so the ``subcarriers``
    family the fan-out declares verifies against the lowered program.
    """
    if size < 2:
        raise ValidationError(
            f"ofdm-rx needs at least 2 subcarrier lanes, got {size}"
        )
    rng = random.Random(seed)
    sample_wire = Wire(elements=rng.choice((16, 32, 64)), rate=16)
    sync_latency = rng.randint(2, 6)
    cfo_latency = rng.randint(2, 6)
    fft_latency = rng.randint(8, 16)
    eq_latency = rng.randint(2, 5)
    demod_latency = rng.randint(2, 5)
    assemble_latency = rng.randint(2, 4)
    lane_wire = Wire(elements=rng.choice((4, 8, 16)), rate=4)

    front = pipe(
        source_stage("adc", latency=1, wire=sample_wire),
        stage("sync", latency=sync_latency, wire=sample_wire),
        stage("cfo", latency=cfo_latency, wire=sample_wire),
        stage(
            "fft",
            latency=fft_latency,
            inputs=[("in", sample_wire)],
            outputs=[(f"bin{i}", lane_wire) for i in range(size)],
        ),
    )
    lanes = parallel(
        *(
            pipe(
                stage(f"eq{i}", latency=eq_latency, wire=lane_wire),
                stage(f"demod{i}", latency=demod_latency, wire=lane_wire),
            )
            for i in range(size)
        ),
        family="subcarriers",
    )
    back = pipe(
        stage("assemble", latency=assemble_latency, inputs=size,
              wire=lane_wire),
        sink_stage("mac", latency=1, wire=lane_wire),
    )
    design = pipe(front, lanes, back)
    system = design.build(name=f"ofdm_rx_s{size}_seed{seed}")
    return system, (
        f"OFDM receiver: sync/cfo/fft front end into {size} replicated "
        "equalize+demodulate subcarrier lanes (declared family "
        "'subcarriers'), merged by an assembler"
    )


def _rate_converter(seed: int, size: int) -> tuple[SystemGraph, str]:
    """Seeded multirate chain expanded to a closed streaming system."""
    if size < 1:
        raise ValidationError(
            f"rate-converter needs at least 1 stage, got {size}"
        )
    rng = random.Random(seed)
    rates: list[tuple[int, int]] = []
    times: list[int] = []
    for _ in range(64):  # deterministic redraw budget
        rates = [rng.choice(_RATE_MENU) for _ in range(size)]
        times = [rng.randint(1, 6) for _ in range(size + 1)]
        graph = rate_chain(
            f"rc_s{size}_seed{seed}",
            rates,
            execution_times=times,
            channel_latency=rng.randint(1, 4),
        )
        repetitions = graph.repetition_vector()
        if sum(repetitions.values()) <= _MAX_SDF_INSTANCES:
            compiled = streaming_design(graph)
            return compiled.system, (
                f"multirate SDF chain of {size + 1} actors with rates "
                f"{rates}, expanded to "
                f"{sum(repetitions.values())} instances and closed with "
                "per-actor sources and sinks"
            )
    raise ValidationError(  # pragma: no cover - menu keeps chains small
        f"rate-converter seed {seed} size {size} exceeded the expansion "
        f"budget of {_MAX_SDF_INSTANCES} instances"
    )


def _noc_torus(seed: int, size: int) -> tuple[SystemGraph, str]:
    """Wrapped ``size x size`` mesh with declared translation families."""
    if size < 2:
        raise ValidationError(
            f"noc-torus needs at least a 2x2 fabric, got size {size}"
        )
    rng = random.Random(seed)
    fabric = mesh(
        size,
        size,
        latency=rng.randint(1, 4),
        wire=Wire(elements=rng.choice((16, 32)), rate=16),
        wrap=True,
        tokens=1,
        name=f"noc_torus_{size}x{size}_seed{seed}",
    )
    design = testbenched(fabric)
    system = design.build(name=f"noc_torus_{size}x{size}_seed{seed}")
    return system, (
        f"{size}x{size} torus NoC fabric with per-node testbenches; "
        "row and column cyclic translation families declared by mesh()"
    )


def _butterfly(seed: int, size: int) -> tuple[SystemGraph, str]:
    """``2**size``-lane butterfly with declared bit-flip families."""
    if not 1 <= size <= 4:
        raise ValidationError(
            f"butterfly size is the address width and must be 1..4, "
            f"got {size}"
        )
    rng = random.Random(seed)
    net = butterfly(
        size,
        latency=rng.randint(1, 4),
        wire=Wire(elements=rng.choice((8, 16, 32)), rate=8),
        name=f"butterfly_b{size}_seed{seed}",
    )
    design = testbenched(net)
    system = design.build(name=f"butterfly_b{size}_seed{seed}")
    return system, (
        f"{2 ** size}-lane butterfly network ({size} ranks) with "
        "per-lane testbenches; one interchangeable family declared per "
        "address bit"
    )


def _bursty_soc(seed: int, size: int) -> tuple[SystemGraph, str]:
    """Layered synthetic SoC with seeded bursty FIFO deepening."""
    if size < 2:
        raise ValidationError(
            f"bursty-soc needs at least 2 processes, got {size}"
        )
    rng = random.Random(seed)
    base = synthetic_soc_seeded(size, rng)
    # Deepen a seeded subset of FIFOs: bursty producers need slack, and
    # the uneven depths are exactly what buffer sizing and ERM3xx
    # occupancy analyses chew on.
    deepened = {
        channel.name: channel.capacity + rng.choice((2, 4, 8))
        for channel in base.channels
        if rng.random() < 0.35
    }
    system = base.with_channel_capacities(deepened)
    return system, (
        f"layered synthetic SoC of {size} processes with "
        f"{len(deepened)} bursty-deepened FIFOs"
    )


def synthetic_soc_seeded(size: int, rng: random.Random) -> SystemGraph:
    """The core synthetic SoC driven by an explicit ``Random`` stream."""
    from repro.core.generators import synthetic_soc

    return synthetic_soc(size, rng=rng)


@dataclass(frozen=True)
class FamilySpec:
    """A workload family: its generator plus CLI-facing metadata."""

    family: str
    default_size: int
    size_help: str
    factory: Callable[[int, int], tuple[SystemGraph, str]]


FAMILIES: dict[str, FamilySpec] = {
    "ofdm-rx": FamilySpec(
        family="ofdm-rx",
        default_size=4,
        size_help="number of replicated subcarrier lanes (>= 2)",
        factory=_ofdm_rx,
    ),
    "rate-converter": FamilySpec(
        family="rate-converter",
        default_size=3,
        size_help="number of rate-changing stages (>= 1)",
        factory=_rate_converter,
    ),
    "noc-torus": FamilySpec(
        family="noc-torus",
        default_size=3,
        size_help="fabric edge length: a size x size wrapped mesh (>= 2)",
        factory=_noc_torus,
    ),
    "butterfly": FamilySpec(
        family="butterfly",
        default_size=2,
        size_help="address width: 2**size lanes (1..4)",
        factory=_butterfly,
    ),
    "bursty-soc": FamilySpec(
        family="bursty-soc",
        default_size=24,
        size_help="number of processes in the layered SoC (>= 2)",
        factory=_bursty_soc,
    ),
}


def family_names() -> tuple[str, ...]:
    """The registered family names, in registry order."""
    return tuple(FAMILIES)


def generate(family: str, *, seed: int = 0, size: int | None = None) -> Workload:
    """Generate one workload; pure in ``(family, seed, size)``.

    Raises:
        ValidationError: Unknown family, or a size outside the family's
            documented range.
    """
    spec = FAMILIES.get(family)
    if spec is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValidationError(
            f"unknown workload family {family!r}; known families: {known}"
        )
    if size is None:
        size = spec.default_size
    system, description = spec.factory(seed, size)
    return Workload(
        name=f"{family}-s{size}-seed{seed}",
        family=family,
        seed=seed,
        size=size,
        system=system,
        description=description,
    )
