"""Core ArtifactStore behaviour: keys, atomicity, clearing, eviction."""

from __future__ import annotations

import pickle

import pytest

from repro.perf.cache import MISS
from repro.store import (
    ARTIFACT_KINDS,
    SCHEMA_VERSION,
    ArtifactStore,
    params_digest,
)

IR_HASH = "ab" * 32
OTHER_HASH = "cd" * 32


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestKeys:
    def test_params_digest_is_order_insensitive(self):
        assert params_digest({"a": 1, "b": 2}) == params_digest({"b": 2, "a": 1})

    def test_params_digest_distinguishes_values(self):
        assert params_digest({"a": 1}) != params_digest({"a": 2})

    def test_params_digest_handles_non_json_values(self):
        from fractions import Fraction

        digest = params_digest({"ct": Fraction(1, 3), "pair": ("x", 1)})
        assert len(digest) == 64

    def test_invalid_kind_rejected(self, store):
        with pytest.raises(ValueError):
            store.get(IR_HASH, "Not A Kind", params_digest({}))

    def test_invalid_hash_rejected(self, store):
        with pytest.raises(ValueError):
            store.get("../../etc/passwd", "verify", params_digest({}))

    def test_entry_path_fans_out_by_hash_prefix(self, store):
        digest = params_digest({})
        path = store.path_of(IR_HASH, "verify", digest)
        assert path.parent.name == IR_HASH[:2]
        assert path.parent.parent.name == "verify"


class TestReadWrite:
    def test_missing_root_reads_as_empty(self, store):
        assert store.get(IR_HASH, "verify", params_digest({})) is MISS
        assert store.count() == 0

    def test_round_trip(self, store):
        digest = params_digest({"iterations": 8})
        store.put(IR_HASH, "verify", digest, {"answer": 42})
        assert store.get(IR_HASH, "verify", digest) == {"answer": 42}
        assert store.contains(IR_HASH, "verify", digest)

    def test_keys_are_independent(self, store):
        digest = params_digest({})
        store.put(IR_HASH, "verify", digest, "a")
        store.put(OTHER_HASH, "verify", digest, "b")
        store.put(IR_HASH, "analysis", digest, "c")
        assert store.get(IR_HASH, "verify", digest) == "a"
        assert store.get(OTHER_HASH, "verify", digest) == "b"
        assert store.get(IR_HASH, "analysis", digest) == "c"

    def test_overwrite_is_last_writer_wins(self, store):
        digest = params_digest({})
        store.put(IR_HASH, "verify", digest, "old")
        store.put(IR_HASH, "verify", digest, "new")
        assert store.get(IR_HASH, "verify", digest) == "new"
        assert store.count() == 1

    def test_no_tmp_files_left_behind(self, store):
        digest = params_digest({})
        store.put(IR_HASH, "verify", digest, "x")
        leftovers = [
            p for p in store.root.rglob(".tmp-*") if p.is_file()
        ]
        assert leftovers == []

    def test_stats_count_hits_misses_writes(self, store):
        digest = params_digest({})
        store.get(IR_HASH, "verify", digest)
        store.put(IR_HASH, "verify", digest, "x")
        store.get(IR_HASH, "verify", digest)
        stats = store.stats_dict()["verify"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["writes"] == 1
        assert "verify" in store.format_stats()


class TestClear:
    def test_clear_removes_entries(self, store):
        digest = params_digest({})
        for kind in ARTIFACT_KINDS:
            store.put(IR_HASH, kind, digest, kind)
        removed = store.clear()
        assert removed == len(ARTIFACT_KINDS)
        assert store.count() == 0
        assert store.get(IR_HASH, ARTIFACT_KINDS[0], digest) is MISS


class TestMaintenance:
    def test_prune_evicts_oldest_first(self, store):
        import os
        import time

        digests = []
        for i in range(5):
            digest = params_digest({"i": i})
            store.put(IR_HASH, "verify", digest, i)
            # mtime granularity can be coarse; force distinct stamps.
            stamp = time.time() - (5 - i)
            os.utime(store.path_of(IR_HASH, "verify", digest), (stamp, stamp))
            digests.append(digest)
        assert store.prune(2) == 3
        assert store.count() == 2
        assert store.get(IR_HASH, "verify", digests[-1]) == 4
        assert store.get(IR_HASH, "verify", digests[0]) is MISS

    def test_prune_same_mtime_is_deterministic(self, store):
        import os

        # Regression: two entries sharing one mtime used to make the
        # survivor filesystem-enumeration-dependent.  The (mtime, path)
        # sort key pins it: the lexicographically larger path survives.
        d1 = params_digest({"i": 1})
        d2 = params_digest({"i": 2})
        store.put(IR_HASH, "verify", d1, "one")
        store.put(IR_HASH, "verify", d2, "two")
        stamp = 1_000_000_000.0
        p1 = store.path_of(IR_HASH, "verify", d1)
        p2 = store.path_of(IR_HASH, "verify", d2)
        os.utime(p1, (stamp, stamp))
        os.utime(p2, (stamp, stamp))
        assert store.prune(1) == 1
        survivor, evicted = sorted([p1, p2], key=str)[::-1]
        assert survivor.exists()
        assert not evicted.exists()

    def test_prune_noop_under_limit(self, store):
        store.put(IR_HASH, "verify", params_digest({}), "x")
        assert store.prune(10) == 0
        assert store.count() == 1

    def test_prune_rejects_negative(self, store):
        with pytest.raises(ValueError):
            store.prune(-1)

    def test_entries_filtered_by_kind(self, store):
        digest = params_digest({})
        store.put(IR_HASH, "verify", digest, 1)
        store.put(IR_HASH, "analysis", digest, 2)
        assert store.count("verify") == 1
        assert store.count() == 2


class TestEnvelope:
    def test_envelope_is_versioned(self, store):
        digest = params_digest({})
        store.put(IR_HASH, "verify", digest, "payload")
        envelope = pickle.loads(
            store.path_of(IR_HASH, "verify", digest).read_bytes()
        )
        assert envelope["schema"] == SCHEMA_VERSION
        assert envelope["kind"] == "verify"
        assert envelope["ir_hash"] == IR_HASH
        assert envelope["payload"] == "payload"
