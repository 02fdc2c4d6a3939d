"""Store robustness: corruption tolerance and concurrent writers.

The store's contract is *a defective entry is a miss, never a crash*:
truncated files, garbage bytes, schema-version skew, and key mismatches
all read as MISS (and the bad file is removed so the defect does not
recur).  Concurrent writers racing on one key are safe because writes go
through ``tmp + os.replace`` — readers only ever see a complete envelope.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.perf.cache import MISS
from repro.store import SCHEMA_VERSION, ArtifactStore, params_digest

IR_HASH = "ef" * 32
DIGEST = params_digest({"iterations": 8})


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _write_raw(store: ArtifactStore, data: bytes) -> None:
    path = store.path_of(IR_HASH, "verify", DIGEST)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


class TestCorruptionTolerance:
    def test_truncated_entry_is_a_miss(self, store):
        store.put(IR_HASH, "verify", DIGEST, {"payload": list(range(100))})
        path = store.path_of(IR_HASH, "verify", DIGEST)
        path.write_bytes(path.read_bytes()[:10])
        assert store.get(IR_HASH, "verify", DIGEST) is MISS
        assert not path.exists(), "corrupt entry should be removed"

    def test_garbage_bytes_are_a_miss(self, store):
        _write_raw(store, b"\x00\xffnot a pickle at all")
        assert store.get(IR_HASH, "verify", DIGEST) is MISS

    def test_empty_file_is_a_miss(self, store):
        _write_raw(store, b"")
        assert store.get(IR_HASH, "verify", DIGEST) is MISS

    def test_non_dict_pickle_is_a_miss(self, store):
        _write_raw(store, pickle.dumps([1, 2, 3]))
        assert store.get(IR_HASH, "verify", DIGEST) is MISS

    def test_schema_version_mismatch_is_a_miss(self, store):
        envelope = {
            "schema": SCHEMA_VERSION + 1,
            "kind": "verify",
            "ir_hash": IR_HASH,
            "params_digest": DIGEST,
            "payload": "from the future",
        }
        _write_raw(store, pickle.dumps(envelope))
        assert store.get(IR_HASH, "verify", DIGEST) is MISS

    def test_key_mismatch_inside_envelope_is_a_miss(self, store):
        # A file renamed (or hash-collided) into the wrong slot must not
        # serve the wrong artifact.
        envelope = {
            "schema": SCHEMA_VERSION,
            "kind": "verify",
            "ir_hash": "00" * 32,
            "params_digest": DIGEST,
            "payload": "wrong design",
        }
        _write_raw(store, pickle.dumps(envelope))
        assert store.get(IR_HASH, "verify", DIGEST) is MISS

    def test_unpicklable_class_in_payload_is_a_miss(self, store):
        # Envelope referencing a class that does not exist on the reader's
        # side: pickle raises AttributeError, the store reports MISS.
        from fractions import Fraction

        good = {
            "schema": SCHEMA_VERSION,
            "kind": "verify",
            "ir_hash": IR_HASH,
            "params_digest": DIGEST,
            "payload": Fraction(1, 3),
        }
        blob = pickle.dumps(good).replace(b"fractions", b"nosuchmod")
        assert blob != pickle.dumps(good), "corruption must actually apply"
        _write_raw(store, blob)
        assert store.get(IR_HASH, "verify", DIGEST) is MISS

    def test_corruption_counts_as_miss_in_stats(self, store):
        _write_raw(store, b"garbage")
        store.get(IR_HASH, "verify", DIGEST)
        assert store.stats_dict()["verify"]["misses"] == 1

    def test_good_entries_survive_a_bad_neighbour(self, store):
        other = params_digest({"other": True})
        store.put(IR_HASH, "verify", other, "good")
        _write_raw(store, b"garbage")
        assert store.get(IR_HASH, "verify", DIGEST) is MISS
        assert store.get(IR_HASH, "verify", other) == "good"


def _racing_writer(root: str, worker: int, writes: int) -> None:
    store = ArtifactStore(root)
    for i in range(writes):
        store.put(IR_HASH, "verify", DIGEST, {"worker": worker, "write": i})


def _racing_reader(root: str, reads: int, out) -> None:
    store = ArtifactStore(root)
    bad = 0
    for _ in range(reads):
        value = store.get(IR_HASH, "verify", DIGEST)
        if value is not MISS and not (
            isinstance(value, dict) and "worker" in value
        ):
            bad += 1
    out.put(bad)


class TestConcurrentWriters:
    def test_racing_writers_never_corrupt_readers(self, tmp_path):
        root = str(tmp_path / "store")
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        writers = [
            ctx.Process(target=_racing_writer, args=(root, w, 40))
            for w in range(3)
        ]
        readers = [
            ctx.Process(target=_racing_reader, args=(root, 80, out))
            for _ in range(2)
        ]
        for p in writers + readers:
            p.start()
        for p in writers + readers:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert out.get(timeout=5) == 0
        assert out.get(timeout=5) == 0
        # Last writer wins; whichever it was, the surviving entry is a
        # complete envelope from one of the writers.
        store = ArtifactStore(root)
        final = store.get(IR_HASH, "verify", DIGEST)
        assert isinstance(final, dict) and final["worker"] in {0, 1, 2}
        assert store.count() == 1

    def test_no_tmp_debris_after_race(self, tmp_path):
        root = str(tmp_path / "store")
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_racing_writer, args=(root, w, 25))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        debris = [p for p in ArtifactStore(root).root.rglob(".tmp-*")]
        assert debris == []
