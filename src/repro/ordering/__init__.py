"""Channel ordering: Algorithm 1, baselines, and the exhaustive oracle."""

from repro.ordering.annealing import AnnealingResult, anneal_ordering
from repro.ordering.algorithm import (
    OrderingOutcome,
    channel_ordering,
    channel_ordering_with_labels,
)
from repro.ordering.baselines import (
    conservative_ordering,
    declaration_ordering,
)
from repro.ordering.exhaustive import SearchResult, exhaustive_search

__all__ = [
    "AnnealingResult",
    "anneal_ordering",
    "OrderingOutcome",
    "SearchResult",
    "channel_ordering",
    "channel_ordering_with_labels",
    "conservative_ordering",
    "declaration_ordering",
    "exhaustive_search",
]
