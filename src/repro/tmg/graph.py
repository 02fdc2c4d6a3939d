"""Timed Marked Graphs (Definition 1 of the paper).

A timed marked graph (TMG) is a Petri-net subclass
``G = (P, T, F, d, M0)`` where every place has exactly one producing and
one consuming transition.  This restriction makes the reachable behaviour
deterministic and the steady-state throughput computable in polynomial time
(Section 3), which is why the paper adopts it as its performance model.

The class below enforces the structural restriction *by construction*:
places are created with their unique producer and consumer, so ``F`` never
needs repairing after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import ValidationError


@dataclass(frozen=True)
class Transition:
    """A transition with its firing delay ``d(t)`` in clock cycles."""

    name: str
    delay: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("transition name must be non-empty")
        if self.delay < 0:
            raise ValidationError(
                f"transition {self.name!r}: delay must be >= 0, got {self.delay}"
            )


@dataclass(frozen=True)
class Place:
    """A place with its unique producer/consumer transitions and marking."""

    name: str
    source: str
    target: str
    tokens: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("place name must be non-empty")
        if self.tokens < 0:
            raise ValidationError(
                f"place {self.name!r}: tokens must be >= 0, got {self.tokens}"
            )


class TimedMarkedGraph:
    """A timed marked graph with mutable marking.

    The structure (places, transitions, arcs, delays) is fixed once built;
    the marking evolves through :meth:`fire`.  ``initial_marking`` is
    retained so analyses always refer to ``M0`` regardless of any token
    game played on the instance, and :meth:`reset` restores it.
    """

    def __init__(self, name: str = "tmg"):
        self.name = name
        self._transitions: dict[str, Transition] = {}
        self._places: dict[str, Place] = {}
        self._outputs: dict[str, list[str]] = {}  # transition -> place names
        self._inputs: dict[str, list[str]] = {}  # transition -> place names
        self._marking: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_transition(self, name: str, delay: int = 0) -> Transition:
        """Add a transition; names are unique across places and transitions
        (Definition 1 requires ``P ∩ T = ∅``)."""
        if name in self._transitions or name in self._places:
            raise ValidationError(f"duplicate element name {name!r}")
        transition = Transition(name, delay)
        self._transitions[name] = transition
        self._outputs[name] = []
        self._inputs[name] = []
        return transition

    def add_place(
        self, name: str, source: str, target: str, tokens: int = 0
    ) -> Place:
        """Add a place from transition ``source`` to transition ``target``
        holding ``tokens`` initial tokens."""
        if name in self._transitions or name in self._places:
            raise ValidationError(f"duplicate element name {name!r}")
        for endpoint in (source, target):
            if endpoint not in self._transitions:
                raise ValidationError(
                    f"place {name!r} references unknown transition {endpoint!r}"
                )
        place = Place(name, source, target, tokens)
        self._places[name] = place
        self._outputs[source].append(name)
        self._inputs[target].append(name)
        self._marking[name] = tokens
        return place

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def transition(self, name: str) -> Transition:
        try:
            return self._transitions[name]
        except KeyError:
            raise ValidationError(f"unknown transition {name!r}") from None

    def place(self, name: str) -> Place:
        try:
            return self._places[name]
        except KeyError:
            raise ValidationError(f"unknown place {name!r}") from None

    @property
    def transitions(self) -> tuple[Transition, ...]:
        return tuple(self._transitions.values())

    @property
    def places(self) -> tuple[Place, ...]:
        return tuple(self._places.values())

    @property
    def transition_names(self) -> tuple[str, ...]:
        return tuple(self._transitions)

    @property
    def place_names(self) -> tuple[str, ...]:
        return tuple(self._places)

    def delay(self, transition: str) -> int:
        return self.transition(transition).delay

    def input_places(self, transition: str) -> tuple[str, ...]:
        self.transition(transition)
        return tuple(self._inputs[transition])

    def output_places(self, transition: str) -> tuple[str, ...]:
        self.transition(transition)
        return tuple(self._outputs[transition])

    # ------------------------------------------------------------------
    # Marking and the token game
    # ------------------------------------------------------------------

    @property
    def marking(self) -> Mapping[str, int]:
        """The current marking (place name -> token count)."""
        return dict(self._marking)

    def initial_marking(self) -> dict[str, int]:
        """``M0``: the marking the graph was built with."""
        return {p.name: p.tokens for p in self._places.values()}

    def tokens(self, place: str) -> int:
        self.place(place)
        return self._marking[place]

    def set_marking(self, marking: Mapping[str, int]) -> None:
        """Overwrite the current marking (places absent from ``marking``
        keep their current count)."""
        for name, count in marking.items():
            self.place(name)
            if count < 0:
                raise ValidationError(
                    f"marking for {name!r} must be >= 0, got {count}"
                )
            self._marking[name] = count

    def reset(self) -> None:
        """Restore the initial marking ``M0``."""
        self._marking = {p.name: p.tokens for p in self._places.values()}

    def is_enabled(self, transition: str) -> bool:
        """A transition is enabled when every input place holds a token."""
        return all(self._marking[p] >= 1 for p in self.input_places(transition))

    def enabled_transitions(self) -> tuple[str, ...]:
        return tuple(t for t in self._transitions if self.is_enabled(t))

    def fire(self, transition: str) -> None:
        """Fire an enabled transition: take one token from each input place,
        put one into each output place."""
        if not self.is_enabled(transition):
            raise ValidationError(
                f"transition {transition!r} is not enabled in the current marking"
            )
        for p in self._inputs[transition]:
            self._marking[p] -= 1
        for p in self._outputs[transition]:
            self._marking[p] += 1

    def total_tokens(self, places: Iterable[str] | None = None) -> int:
        """Token count over ``places`` (default: the whole marking)."""
        if places is None:
            return sum(self._marking.values())
        return sum(self._marking[self.place(p).name] for p in places)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check Definition 1's structural requirements.

        Construction already guarantees each place has exactly one producer
        and one consumer; this additionally rejects empty graphs and
        transitions with no connected place (which can never fire or be
        observed and indicate a modelling bug).
        """
        if not self._transitions:
            raise ValidationError(f"TMG {self.name!r} has no transitions")
        for name in self._transitions:
            if not self._inputs[name] and not self._outputs[name]:
                raise ValidationError(
                    f"transition {name!r} is disconnected (no places)"
                )

    def __repr__(self) -> str:
        return (
            f"TimedMarkedGraph({self.name!r}, transitions={len(self._transitions)}, "
            f"places={len(self._places)}, tokens={sum(self._marking.values())})"
        )
