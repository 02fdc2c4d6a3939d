"""The on-disk content-addressed artifact store.

An :class:`ArtifactStore` persists derived analysis artifacts — TMG
analyses, verification verdicts, Pareto fronts — under content-addressed
keys so they survive the process that computed them and are shared by
every process pointed at the same root (``docs/API.md``, "Artifact
store", documents the on-disk schema).

Keys are ``(ir_hash, kind, params_digest)`` triples:

* ``ir_hash`` — the :attr:`repro.ir.LoweredIR.structural_hash` of the
  design the artifact describes (the same digest the in-memory ``perf``
  caches, the lint context, and the lowering memo use, so every layer
  agrees on what "same structure" means);
* ``kind`` — a short lowercase token naming the artifact family (see
  :data:`ARTIFACT_KINDS` for the conventional ones; any
  ``[a-z0-9_]+`` token is accepted so new layers can add kinds without
  touching this module);
* ``params_digest`` — a digest of every non-structural input that can
  change the artifact (latencies, arithmetic mode, targets …),
  canonically rendered by :func:`params_digest`.

Design constraints, in order of importance:

1. **Never crash on a bad entry.**  Reads tolerate truncated files,
   garbage bytes, schema-version mismatches, and key collisions from
   older layouts: every such condition is a *miss* (and the offending
   file is removed best-effort).  A store is a cache, not a database.
2. **Atomic writes.**  Entries are written to a temporary file in the
   destination directory and published with :func:`os.replace`, so a
   reader never observes a half-written entry and concurrent writers of
   the same key race benignly (last writer wins, both wrote the same
   content-addressed value).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import uuid
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.perf.cache import MISS, CacheStats

#: Version of the on-disk entry envelope.  Bump on any incompatible
#: change; readers treat every other version as a miss, so a store
#: written by another version degrades to recomputation, not a crash.
SCHEMA_VERSION = 1

#: Conventional artifact kinds.  The store accepts any ``[a-z0-9_]+``
#: token; these are the ones the shipped layers read and write.
ARTIFACT_KINDS: tuple[str, ...] = (
    "analysis",     # SystemPerformance / memoized deadlock (repro.perf)
    "verify",       # explorer's deadlock-freedom verdicts (repro.dse)
    "pareto",       # sweep Pareto fronts (repro.dse.sweep)
)

_KIND_RE = re.compile(r"^[a-z0-9_]+$")
_HASH_RE = re.compile(r"^[0-9a-f]{8,}$")
_ENTRY_SUFFIX = ".art"


def params_digest(params: Mapping[str, object]) -> str:
    """Canonical digest of an artifact's non-structural parameters.

    Parameters are rendered as sorted-key compact JSON (non-JSON values
    fall back to ``repr``, which is stable for the value types used as
    parameters: ints, strings, tuples of pairs, Fractions) and hashed
    with SHA-256.  Two mappings with the same items digest identically
    regardless of insertion order.
    """
    rendered = json.dumps(
        dict(params), sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


class ArtifactStore:
    """A persistent, corruption-tolerant, content-addressed artifact cache.

    Args:
        root: Directory holding the store.  Created on first write; a
            missing root reads as empty, never as an error.

    Layout (one file per entry)::

        <root>/<kind>/<hh>/<ir_hash>.<params_digest>.art

    where ``hh`` is the first two hex digits of ``ir_hash`` (a fan-out
    level keeping directories small).  Entry files are
    pickled envelopes ``{"schema", "kind", "ir_hash", "params_digest",
    "payload"}``; the redundant key fields are verified on read so a
    renamed or cross-linked file can never serve the wrong artifact.
    """

    def __init__(self, root: str | Path):
        self._root = Path(root)
        self._stats: dict[str, CacheStats] = {}
        self._writes: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @staticmethod
    def _check_key(ir_hash: str, kind: str, digest: str) -> None:
        if not _KIND_RE.match(kind):
            raise ValueError(f"invalid artifact kind {kind!r}")
        if not _HASH_RE.match(ir_hash):
            raise ValueError(f"invalid ir_hash {ir_hash!r}")
        if not _HASH_RE.match(digest):
            raise ValueError(f"invalid params digest {digest!r}")

    def path_of(self, ir_hash: str, kind: str, digest: str) -> Path:
        """The on-disk path of one entry (whether or not it exists)."""
        self._check_key(ir_hash, kind, digest)
        return (
            self._root / kind / ir_hash[:2]
            / f"{ir_hash}.{digest}{_ENTRY_SUFFIX}"
        )

    def _kind_stats(self, kind: str) -> CacheStats:
        try:
            return self._stats[kind]
        except KeyError:
            made = self._stats[kind] = CacheStats()
            return made

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get(self, ir_hash: str, kind: str, digest: str) -> Any:
        """The stored payload, or :data:`repro.perf.cache.MISS`.

        Any defect — missing file, truncated or garbage bytes, a schema
        version other than :data:`SCHEMA_VERSION`, an envelope whose key
        fields disagree with the request — is a miss, never an
        exception; defective files are removed best-effort so the next
        write repairs them.
        """
        path = self.path_of(ir_hash, kind, digest)
        stats = self._kind_stats(kind)
        try:
            blob = path.read_bytes()
        except OSError:
            stats.misses += 1
            return MISS
        try:
            envelope = pickle.loads(blob)
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != SCHEMA_VERSION
                or envelope.get("kind") != kind
                or envelope.get("ir_hash") != ir_hash
                or envelope.get("params_digest") != digest
            ):
                raise ValueError("bad envelope")
            payload = envelope["payload"]
        except Exception:
            # Corrupt, truncated, or mismatched entry: drop it (best
            # effort — a concurrent reader may already have) and miss.
            try:
                path.unlink()
            except OSError:
                pass
            stats.misses += 1
            return MISS
        stats.hits += 1
        return payload

    def put(self, ir_hash: str, kind: str, digest: str, payload: Any) -> None:
        """Persist one artifact atomically (tmp file + rename).

        Concurrent writers of the same key are safe: each writes its own
        temporary file and the final :func:`os.replace` is atomic, so
        readers only ever see complete entries.  An unwritable store is
        reported (OSError propagates) — a caller must know its cache is
        not persisting.
        """
        path = self.path_of(ir_hash, kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "ir_hash": ir_hash,
            "params_digest": digest,
            "payload": payload,
        }
        blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        tmp = path.parent / f".tmp-{os.getpid()}-{uuid.uuid4().hex}"
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        self._writes[kind] = self._writes.get(kind, 0) + 1

    def contains(self, ir_hash: str, kind: str, digest: str) -> bool:
        """Whether an entry file exists (without validating its bytes)."""
        return self.path_of(ir_hash, kind, digest).is_file()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def entries(self, kind: str | None = None) -> Iterator[Path]:
        """Every entry file currently on disk (one kind, or all)."""
        kinds: Iterator[Path]
        if kind is not None:
            self._check_key("0" * 8, kind, "0" * 8)
            kinds = iter([self._root / kind])
        elif self._root.is_dir():
            kinds = (p for p in self._root.iterdir() if p.is_dir())
        else:
            kinds = iter(())
        for kind_dir in kinds:
            if not kind_dir.is_dir():
                continue
            yield from sorted(kind_dir.glob(f"*/*{_ENTRY_SUFFIX}"))

    def count(self, kind: str | None = None) -> int:
        """Number of entries on disk (one kind, or all)."""
        return sum(1 for _ in self.entries(kind))

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_entries: int) -> int:
        """Evict oldest entries (by mtime) down to ``max_entries``.

        The store is append-mostly; call this periodically to bound disk
        use.  Eviction is safe at any time —
        an evicted artifact is recomputed on the next request.  Returns
        the number of entries removed.
        """
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        all_entries = list(self.entries())
        if len(all_entries) <= max_entries:
            return 0

        def mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        all_entries.sort(key=lambda p: (mtime(p), str(p)))
        removed = 0
        for path in all_entries[: len(all_entries) - max_entries]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats_dict(self) -> dict[str, dict[str, int | float]]:
        """Per-kind hit/miss/write counters of *this process's* handle."""
        out: dict[str, dict[str, int | float]] = {}
        for kind in sorted(set(self._stats) | set(self._writes)):
            stats = self._kind_stats(kind)
            entry = stats.as_dict()
            entry["writes"] = self._writes.get(kind, 0)
            out[kind] = entry
        return out

    def format_stats(self) -> str:
        """Human-readable one-line-per-kind counter report."""
        lines = []
        for kind, entry in self.stats_dict().items():
            lines.append(
                f"{kind:>12}: hits={entry['hits']} misses={entry['misses']} "
                f"writes={entry['writes']}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self._root)!r})"

