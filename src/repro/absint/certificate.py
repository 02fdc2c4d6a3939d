"""Machine-checkable deadlock-freedom certificates.

A blocking-protocol configuration deadlocks if and only if its marked
graph (the place rows of :func:`repro.model.build._marked_rows`) has a
token-free directed cycle — Commoner's liveness condition for marked
graphs, the same argument :mod:`repro.tmg.deadlock` applies and
``tests/verify/test_agreement.py`` cross-checks against exhaustive
search.  A :class:`DeadlockFreedomCertificate` is the *positive witness*
of that condition: a ranking of transitions that strictly increases
along every token-free place.  If such a ranking exists, no token-free
cycle can (a cycle cannot strictly increase), so the configuration is
live; conversely, whenever no token-free cycle exists a topological
order of the token-free subgraph yields a ranking.

The point of issuing an explicit certificate instead of a boolean is
*checkability*: :func:`check_certificate` re-derives the place rows from
the IR and validates the ranking in one linear pass — no search — so a
consumer (the Explorer, a CI job, a reviewer) can accept the guarantee
without trusting the issuer.  Both directions run on the integer rows;
transition names appear only in the ranking and in error messages.  The
certificate is bound to the configuration by the IR's content address
(:attr:`~repro.ir.LoweredIR.structural_hash`); a certificate can never
be replayed against a different design.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import VerificationError
from repro.ir import LoweredIR
from repro.model.build import _MarkedRows, _marked_rows, _structure

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


def issue_certificate(ir: LoweredIR) -> DeadlockFreedomCertificate | None:
    """Certify ``ir`` deadlock-free, or return ``None`` if it is not
    (obtain the witness with :func:`find_token_free_cycle`)."""
    return _certify(ir, _marked_rows(ir))


def find_token_free_cycle(ir: LoweredIR) -> tuple[str, ...] | None:
    """A witness token-free cycle (transition names), or ``None`` if live.

    The negative counterpart of :func:`issue_certificate`: exactly one of
    the two returns a value for any IR.
    """
    return _token_free_witness(ir, _marked_rows(ir))


def _certify(
    ir: LoweredIR, rows: _MarkedRows
) -> DeadlockFreedomCertificate | None:
    """Kahn's topological sort over the token-free place rows: a complete
    order yields the ranking, a leftover means a token-free cycle.

    Deterministic: the queue is seeded in name order and each node's
    successors are visited in name order, so the ranking (and hence the
    certificate bytes) is stable run to run.  Linear in places plus
    transitions, after one sort of each.
    """
    names = rows.names
    by_name = sorted(range(len(names)), key=names.__getitem__)
    position = [0] * len(names)
    for i, u in enumerate(by_name):
        position[u] = i
    free = [row for row, tokens in enumerate(rows.tokens) if tokens == 0]
    free.sort(key=lambda row: position[rows.target[row]])
    successors: list[list[int]] = [[] for _ in names]
    indegree = [0] * len(names)
    member = [False] * len(names)  # on some token-free place
    for row in free:
        u, v = rows.source[row], rows.target[row]
        successors[u].append(v)
        indegree[v] += 1
        member[u] = member[v] = True

    queue = deque(u for u in by_name if member[u] and indegree[u] == 0)
    rank = [0] * len(names)
    ranked = 0
    while queue:
        u = queue.popleft()
        rank[u] = ranked
        ranked += 1
        for v in successors[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    if any(indegree):
        return None
    return DeadlockFreedomCertificate(
        ir_hash=ir.structural_hash,
        system_name=ir.system_name,
        method=METHOD_SIPHON_RANKING,
        version=CERTIFICATE_VERSION,
        ranks=tuple((names[u], rank[u]) for u in by_name if member[u]),
    )


def _token_free_witness(
    ir: LoweredIR, rows: _MarkedRows
) -> tuple[str, ...] | None:
    """The :attr:`~repro.model.build.StructureEntry.deadlock_cycle` of
    ``ir``'s event graph, built from ``rows``."""
    cycle = _structure(ir, rows).deadlock_cycle
    return None if cycle is None else tuple(cycle)


def check_certificate(
    ir: LoweredIR, certificate: DeadlockFreedomCertificate
) -> None:
    """Validate ``certificate`` against ``ir`` — the trust boundary.

    Re-derives the place rows from the IR and checks, in one linear pass,
    that the ranking strictly increases along every token-free place.
    Raises :class:`CertificateError` on any mismatch; returns silently
    when the certificate holds (and hence the configuration provably
    cannot deadlock).
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
    rows = _marked_rows(ir)
    names = rows.names
    node_rank = [ranks.get(name) for name in names]
    for row, tokens in enumerate(rows.tokens):
        if tokens > 0:
            continue
        source, target = rows.source[row], rows.target[row]
        source_rank, target_rank = node_rank[source], node_rank[target]
        if source_rank is None or target_rank is None:
            missing = names[source] if source_rank is None else names[target]
            raise CertificateError(
                f"certificate for {ir.system_name!r} assigns no rank to "
                f"transition {missing!r} (required by token-free place "
                f"{rows.place_name(row)!r})"
            )
        if not source_rank < target_rank:
            raise CertificateError(
                f"certificate for {ir.system_name!r} is not a valid "
                f"ranking: token-free place {rows.place_name(row)!r} runs "
                f"{names[source]!r} (rank {source_rank}) -> "
                f"{names[target]!r} (rank {target_rank})"
            )
