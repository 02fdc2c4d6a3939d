"""Persistent content-addressed artifact store.

Public surface of the ``repro.store`` layer: an on-disk cache of derived
artifacts keyed by ``(ir_hash, kind, params_digest)``, shared across
processes and survives them.  See ``docs/API.md`` ("Artifact store") for
the on-disk schema.
"""

from repro.store.artifacts import (
    ARTIFACT_KINDS,
    SCHEMA_VERSION,
    ArtifactStore,
    params_digest,
)

__all__ = [
    "ARTIFACT_KINDS",
    "SCHEMA_VERSION",
    "ArtifactStore",
    "params_digest",
]
