"""Channel ordering: Algorithm 1, baselines, and the exhaustive oracle."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.ordering.algorithm import (
        OrderingOutcome as OrderingOutcome,
        channel_ordering as channel_ordering,
        channel_ordering_with_labels as channel_ordering_with_labels,
    )
    from repro.ordering.annealing import (
        AnnealingResult as AnnealingResult,
        anneal_ordering as anneal_ordering,
    )
    from repro.ordering.baselines import (
        conservative_ordering as conservative_ordering,
        declaration_ordering as declaration_ordering,
    )
    from repro.ordering.exhaustive import (
        SearchResult as SearchResult,
        exhaustive_search as exhaustive_search,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".algorithm": (
            "OrderingOutcome", "channel_ordering", "channel_ordering_with_labels",
        ),
        ".annealing": ("AnnealingResult", "anneal_ordering"),
        ".baselines": ("conservative_ordering", "declaration_ordering"),
        ".exhaustive": ("SearchResult", "exhaustive_search"),
    })
