"""Fluent builder for :class:`~repro.core.system.SystemGraph`.

The builder is sugar over ``add_process``/``add_channel`` that reads like a
netlist.  It is the construction API used throughout the examples::

    system = (
        SystemBuilder("pipeline")
        .source("src", latency=1)
        .process("stage0", latency=4)
        .process("stage1", latency=2)
        .sink("snk", latency=1)
        .channel("a", "src", "stage0", latency=2)
        .channel("b", "stage0", "stage1", latency=1)
        .channel("c", "stage1", "snk", latency=1)
        .build()
    )
"""

from __future__ import annotations

from repro.core.system import Channel, Process, ProcessKind, SystemGraph
from repro.core.validation import validate_system
from repro.errors import ValidationError


class SystemBuilder:
    """Incrementally assemble a system, then :meth:`build` it.

    ``build`` validates the result by default so malformed systems fail at
    construction time rather than deep inside analysis.
    """

    def __init__(self, name: str = "system"):
        self._system = SystemGraph(name)

    def process(self, name: str, latency: int = 1) -> "SystemBuilder":
        """Add a worker (design) process."""
        self._system.add_process(Process(name, latency=latency))
        return self

    def source(self, name: str, latency: int = 1) -> "SystemBuilder":
        """Add a testbench source process (always ready to produce data)."""
        self._system.add_process(
            Process(name, latency=latency, kind=ProcessKind.SOURCE)
        )
        return self

    def sink(self, name: str, latency: int = 1) -> "SystemBuilder":
        """Add a testbench sink process (always ready to consume data)."""
        self._system.add_process(Process(name, latency=latency, kind=ProcessKind.SINK))
        return self

    def channel(
        self,
        name: str,
        producer: str,
        consumer: str,
        latency: int = 1,
        capacity: int = 0,
        initial_tokens: int = 0,
    ) -> "SystemBuilder":
        """Add a point-to-point channel from ``producer`` to ``consumer``.

        Fails **at this call site** when either endpoint has not been
        declared yet, naming the offending role — wiring against a
        process that does not exist is a construction bug best reported
        where the typo is, not later at :meth:`build`.
        """
        for role, endpoint in (("producer", producer), ("consumer", consumer)):
            if not self._system.has_process(endpoint):
                raise ValidationError(
                    f"channel {name!r}: {role} {endpoint!r} is not a "
                    "declared process; declare it with .process()/"
                    ".source()/.sink() before wiring channels to it"
                )
        self._system.add_channel(
            Channel(
                name,
                producer,
                consumer,
                latency=latency,
                capacity=capacity,
                initial_tokens=initial_tokens,
            )
        )
        return self

    def channels(self, *specs: tuple) -> "SystemBuilder":
        """Add several channels from ``(name, producer, consumer, latency)``
        tuples (latency optional, default 1)."""
        for spec in specs:
            self.channel(*spec)
        return self

    def build(self, validate: bool = True) -> SystemGraph:
        """Finish construction, optionally validating the topology."""
        if validate:
            validate_system(self._system)
        return self._system

