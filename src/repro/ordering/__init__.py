"""Channel ordering: Algorithm 1, baselines, and the exhaustive oracle."""

from repro.ordering.annealing import AnnealingResult, anneal_ordering
from repro.ordering.algorithm import (
    LabelingResult,
    OrderingOutcome,
    channel_ordering,
    channel_ordering_with_labels,
)
from repro.ordering.baselines import (
    conservative_ordering,
    declaration_ordering,
    random_ordering,
    reversed_ordering,
)
from repro.ordering.exhaustive import SearchResult, exhaustive_search
from repro.ordering.feedback import feedback_first, has_preloaded_channels

__all__ = [
    "AnnealingResult",
    "anneal_ordering",
    "LabelingResult",
    "OrderingOutcome",
    "SearchResult",
    "channel_ordering",
    "channel_ordering_with_labels",
    "conservative_ordering",
    "declaration_ordering",
    "exhaustive_search",
    "feedback_first",
    "has_preloaded_channels",
    "random_ordering",
    "reversed_ordering",
]
