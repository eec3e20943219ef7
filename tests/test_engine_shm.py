"""Unit tests for the shared-memory column store (``repro.engine.shm``)
the serving pool's process tier ships environments through.

Covers the exact-value codec contract (the determinism guarantee rests on
it), segment lifecycle including the crash/sweep paths, and engine
adoption equivalence.  The process-tier leak checks live in
``tests/test_serve.py`` and ``tests/test_faults.py``; CI's spawn job
re-runs this file.
"""

import math
import pickle
import struct

import pytest

from repro.benchmarks import get_task
from repro.engine import make_engine, shm
from repro.lang.ast import Env, TableRef
from repro.table.table import Table

#: A quiet NaN with a non-default payload: only a bit-exact f8 round trip
#: preserves it (``==`` can't check NaN, so tests compare packed bytes).
PAYLOAD_NAN = struct.unpack("<d", b"\x01\x02\x03\x04\x05\x06\xf9\x7f")[0]


def roundtrip(column):
    """Encode one column into a segment buffer and decode it back."""
    builder = shm._SegmentBuilder()
    meta = builder.add_column(column)
    buf = bytearray(builder.size)
    builder.write_into(buf)
    return shm.decode_column(meta, buf), meta


def small_env(*values) -> Env:
    """One single-column table per value list, named t0, t1, ..."""
    return Env(tuple(Table.from_rows(f"t{i}", ["v"], [[v] for v in column])
                     for i, column in enumerate(values)))


class TestCodecs:
    def test_int_column_exact(self):
        column = [0, 1, -1, 2**52, -(2**52), 2**63 - 1, -(2**63)]
        decoded, meta = roundtrip(column)
        assert decoded == column
        assert meta.tag == "i8"
        assert all(type(v) is int for v in decoded)

    def test_int_beyond_int64_falls_back_to_obj(self):
        column = [1, 2**63]      # second cell overflows the typed buffer
        decoded, meta = roundtrip(column)
        assert decoded == column
        assert meta.tag == "obj"

    def test_float_column_bit_exact(self):
        column = [0.0, -0.0, 1.5, math.inf, -math.inf, PAYLOAD_NAN]
        decoded, meta = roundtrip(column)
        assert meta.tag == "f8"
        assert struct.pack(f"<{len(column)}d", *decoded) == \
            struct.pack(f"<{len(column)}d", *column)
        # Signed zero survives even though -0.0 == 0.0.
        assert math.copysign(1.0, decoded[1]) < 0

    def test_str_column_exact_including_nuls(self):
        column = ["", "a", "a\x00", "\x00", "héllo", "日本語", "a" * 40]
        decoded, meta = roundtrip(column)
        assert decoded == column
        assert meta.tag == "u4"

    def test_bool_and_mixed_columns_take_object_path(self):
        # type() identity keeps bool out of int columns (True == 1 but
        # sorts in a different class) — both must survive exactly.
        for column in ([True, False], [1, "a"], [None, None], [1, 2.0]):
            decoded, meta = roundtrip(column)
            assert decoded == column
            assert meta.tag == "obj"

    def test_empty_column(self):
        decoded, meta = roundtrip([])
        assert decoded == []
        assert meta.tag == "obj"

    def test_unknown_codec_rejected(self):
        meta = shm.ColumnMeta("zstd", 0, 0, 0)
        with pytest.raises(ValueError, match="zstd"):
            shm.decode_column(meta, b"")


class TestEnvRoundTrip:
    def test_env_equal_and_hash_equal(self):
        task = get_task("fh02_region_quarter_share")
        with shm.ShmStore() as store:
            handle = store.publish_env(task.env)
            assert isinstance(pickle.loads(pickle.dumps(handle)),
                              shm.EnvHandle)
            with shm.Attachment() as attachment:
                rebuilt = shm.attach_env(handle, attachment)
                assert rebuilt == task.env
                assert hash(rebuilt) == hash(task.env)
                assert rebuilt is not task.env


class TestLifecycle:
    def test_store_close_unlinks_everything(self):
        store = shm.ShmStore()
        store.publish_env(small_env([1, 2]))
        store.publish_env(small_env(["x"]))
        assert len(shm.scan_segments(store.prefix)) == 2
        store.close()
        assert shm.scan_segments(store.prefix) == []
        store.close()               # idempotent

    def test_attachments_are_memoized_and_refcounted(self):
        store = shm.ShmStore()
        handle = store.publish_env(small_env([1, 2, 3])).tables[0].block
        first, second = shm.Attachment(), shm.Attachment()
        assert first.get(handle.segment) is first.get(handle.segment)
        [a] = shm.decode_block(handle, first)
        [b] = shm.decode_block(handle, second)
        first.close()
        # An open sibling attachment is unaffected; the segment even
        # survives the creator's unlink until the last mapping drops.
        [c] = shm.decode_block(handle, second)
        store.close()
        assert a == b == c == [1, 2, 3]
        second.close()
        assert shm.scan_segments(store.prefix) == []

    def test_sweep_reclaims_crashed_run(self):
        # Simulate a coordinator crash: segments published, never closed.
        store = shm.ShmStore()
        store.publish_env(small_env([1]))
        store.publish_env(small_env([2]))
        assert len(shm.scan_segments(store.prefix)) == 2
        assert shm.sweep_prefix(store.prefix) == 2
        assert shm.scan_segments(store.prefix) == []
        store.close()               # post-sweep close is a no-op, not a raise

    def test_unlink_segment_missing_is_false(self):
        assert shm.unlink_segment("reproshm_never_existed") is False

    def test_scan_ignores_foreign_prefixes(self):
        store = shm.ShmStore()
        store.publish_env(small_env([1]))
        assert shm.scan_segments("reproshm_notmine") == []
        assert store._segments[0].name in shm.scan_segments()
        store.close()


@pytest.mark.parametrize("backend", ("columnar",))
def test_adopted_engine_matches_plain_engine(backend):
    """An engine evaluating through adopted shm columns must produce the
    same tables as one working from the original in-process env."""
    task = get_task("fh02_region_quarter_share")
    queries = [task.ground_truth] + \
        [TableRef(t.name) for t in task.tables]
    with shm.ShmStore() as store:
        handle = store.publish_env(task.env)
        attachment = shm.Attachment()
        env, adopted = shm.adopt_env(handle, attachment)
        adopted_engine = make_engine(backend)
        adopted_engine.adopt_env(env, adopted)
        plain_engine = make_engine(backend)
        for query in queries:
            assert adopted_engine.evaluate(query, env) == \
                plain_engine.evaluate(query, task.env)
        attachment.close()
