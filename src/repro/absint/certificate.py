"""Machine-checkable deadlock-freedom certificates.

A blocking-protocol configuration deadlocks if and only if its marked
graph (:func:`repro.model.build.marked_places`) has a token-free directed
cycle — Commoner's liveness condition for marked graphs, the same
argument :mod:`repro.tmg.deadlock` applies and
``tests/verify/test_agreement.py`` cross-checks against exhaustive
search.  A :class:`DeadlockFreedomCertificate` is the *positive witness*
of that condition: a ranking of transitions that strictly increases
along every token-free place.  If such a ranking exists, no token-free
cycle can (a cycle cannot strictly increase), so the configuration is
live; conversely, whenever no token-free cycle exists a topological
order of the token-free subgraph yields a ranking.

The point of issuing an explicit certificate instead of a boolean is
*checkability*: :func:`check_certificate` re-derives the place structure
from the IR and validates the ranking in one linear pass — no fixpoint,
no search — so a consumer (the explicit-state verifier, a CI job, a
reviewer) can accept the guarantee without trusting the issuer.  The
certificate is bound to the configuration by the IR's content address
(:attr:`~repro.ir.LoweredIR.structural_hash`); a certificate can never
be replayed against a different design.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.errors import VerificationError
from repro.ir import LoweredIR
from repro.model.build import MarkedPlace, build_structure, marked_places

#: Format tag carried by every certificate (bump on layout changes).
CERTIFICATE_VERSION = "cert:v1"

#: The one issuing method this module implements.
METHOD_SIPHON_RANKING = "siphon-ranking"


class CertificateError(VerificationError):
    """A deadlock-freedom certificate failed validation.

    Raised by :func:`check_certificate` when a certificate does not match
    the configuration it is presented for (hash mismatch) or its ranking
    does not actually increase along every token-free place.  A failing
    check means the certificate must be rejected — it never says anything
    about the design itself.
    """


@dataclass(frozen=True)
class DeadlockFreedomCertificate:
    """A verifiable proof that one configuration cannot deadlock.

    Attributes:
        ir_hash: Content address of the certified
            :class:`~repro.ir.LoweredIR` (the binding; checked first).
        system_name: The certified system's name (for error messages).
        method: The issuing argument (:data:`METHOD_SIPHON_RANKING`).
        version: Certificate format tag (:data:`CERTIFICATE_VERSION`).
        ranks: Name-sorted ``(transition, rank)`` pairs such that every
            token-free place ``u -> v`` satisfies ``rank(u) < rank(v)``.
    """

    ir_hash: str
    system_name: str
    method: str
    version: str
    ranks: tuple[tuple[str, int], ...]

    def rank_map(self) -> dict[str, int]:
        """The ranking as a dictionary."""
        return dict(self.ranks)

    def to_dict(self) -> dict[str, object]:
        """A JSON-safe rendering (``ermes analyze --format json``)."""
        return {
            "ir_hash": self.ir_hash,
            "system": self.system_name,
            "method": self.method,
            "version": self.version,
            "ranks": {name: rank for name, rank in self.ranks},
        }

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "DeadlockFreedomCertificate":
        """Rebuild a certificate from its :meth:`to_dict` rendering."""
        try:
            ranks = doc["ranks"]
            if not isinstance(ranks, dict):
                raise TypeError("ranks must be an object")
            return cls(
                ir_hash=str(doc["ir_hash"]),
                system_name=str(doc["system"]),
                method=str(doc["method"]),
                version=str(doc["version"]),
                ranks=tuple(
                    sorted((str(k), int(v)) for k, v in ranks.items())
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CertificateError(
                f"malformed certificate document: {error}"
            ) from error


def _token_free_graph(
    places: Iterable[MarkedPlace],
) -> tuple[dict[str, list[str]], dict[str, int]]:
    """Adjacency and in-degrees of the token-free place subgraph."""
    edges: dict[str, list[str]] = {}
    indegree: dict[str, int] = {}
    for place in places:
        if place.tokens > 0:
            continue
        edges.setdefault(place.source, []).append(place.target)
        edges.setdefault(place.target, [])
        indegree[place.target] = indegree.get(place.target, 0) + 1
        indegree.setdefault(place.source, 0)
    return edges, indegree


def issue_certificate(ir: LoweredIR) -> DeadlockFreedomCertificate | None:
    """Certify ``ir`` deadlock-free, or return ``None`` if it is not.

    Kahn's topological sort over the token-free subgraph of the
    structural marked graph: a complete order yields the ranking, a
    leftover means a token-free cycle exists (obtain its witness with
    :func:`find_token_free_cycle`).  Linear in places + transitions.
    """
    edges, indegree = _token_free_graph(marked_places(ir))
    order = _kahn_order(edges, indegree)
    if order is None:
        return None
    return DeadlockFreedomCertificate(
        ir_hash=ir.structural_hash,
        system_name=ir.system_name,
        method=METHOD_SIPHON_RANKING,
        version=CERTIFICATE_VERSION,
        ranks=tuple(sorted(order.items())),
    )


def find_token_free_cycle(ir: LoweredIR) -> tuple[str, ...] | None:
    """A witness token-free cycle (transition names), or ``None`` if live.

    The negative counterpart of :func:`issue_certificate`: exactly one of
    the two returns a value for any IR.  The witness is the
    :attr:`~repro.model.build.StructureEntry.deadlock_cycle` of the IR's
    event graph.
    """
    cycle = build_structure(ir).deadlock_cycle
    return None if cycle is None else tuple(cycle)


def _kahn_order(
    edges: dict[str, list[str]], indegree: dict[str, int]
) -> dict[str, int] | None:
    """Topological ranks of the graph, or ``None`` when it has a cycle.

    Deterministic: ready nodes are processed in sorted order, so the
    ranking (and hence the certificate bytes) is stable run to run.
    """
    counts = dict(indegree)
    ready = sorted(node for node, degree in counts.items() if degree == 0)
    queue = deque(ready)
    order: dict[str, int] = {}
    while queue:
        node = queue.popleft()
        order[node] = len(order)
        for successor in sorted(edges[node]):
            counts[successor] -= 1
            if counts[successor] == 0:
                queue.append(successor)
    if len(order) != len(counts):
        return None
    return order


def check_certificate(
    ir: LoweredIR, certificate: DeadlockFreedomCertificate
) -> None:
    """Validate ``certificate`` against ``ir`` — the trust boundary.

    Re-derives the place structure from the IR and checks, in one linear
    pass, that the ranking strictly increases along every token-free
    place.  Raises :class:`CertificateError` on any mismatch; returns
    silently when the certificate holds (and hence the configuration
    provably cannot deadlock).
    """
    if certificate.version != CERTIFICATE_VERSION:
        raise CertificateError(
            f"unsupported certificate version {certificate.version!r} "
            f"(expected {CERTIFICATE_VERSION!r})"
        )
    if certificate.method != METHOD_SIPHON_RANKING:
        raise CertificateError(
            f"unknown certification method {certificate.method!r}"
        )
    if certificate.ir_hash != ir.structural_hash:
        raise CertificateError(
            f"certificate was issued for IR {certificate.ir_hash[:12]}... "
            f"but presented for {ir.structural_hash[:12]}... "
            f"(system {ir.system_name!r})"
        )
    ranks = certificate.rank_map()
    for place in marked_places(ir):
        if place.tokens > 0:
            continue
        source_rank = ranks.get(place.source)
        target_rank = ranks.get(place.target)
        if source_rank is None or target_rank is None:
            missing = place.source if source_rank is None else place.target
            raise CertificateError(
                f"certificate for {ir.system_name!r} assigns no rank to "
                f"transition {missing!r} (required by token-free place "
                f"{place.name!r})"
            )
        if not source_rank < target_rank:
            raise CertificateError(
                f"certificate for {ir.system_name!r} is not a valid "
                f"ranking: token-free place {place.name!r} runs "
                f"{place.source!r} (rank {source_rank}) -> "
                f"{place.target!r} (rank {target_rank})"
            )
