"""Unit tests for the shared-memory column store (``repro.engine.shm``)
and the cross-shard sub-plan cache (``repro.parallel.plan_cache``).

Covers the exact-value codec contract (the determinism guarantee rests on
it), segment lifecycle including the crash/sweep paths, engine adoption
equivalence, and the publish/fetch/race protocol of the plan cache.
The fork-vs-spawn and whole-suite leak checks live in
``tests/test_parallel_differential.py``; CI's spawn job re-runs both.
"""

import math
import pickle
import struct

import pytest

from repro.benchmarks import all_tasks, get_task
from repro.engine import make_engine, shm
from repro.lang.ast import Env, TableRef
from repro.lang.size import operator_count
from repro.parallel.plan_cache import (
    MIN_SHARED_OPERATORS,
    LocalPlanCache,
    ProcessPlanClient,
    plan_digest,
)

#: A quiet NaN with a non-default payload: only a bit-exact f8 round trip
#: preserves it (``==`` can't check NaN, so tests compare packed bytes).
PAYLOAD_NAN = struct.unpack("<d", b"\x01\x02\x03\x04\x05\x06\xf9\x7f")[0]


def roundtrip(column):
    """Encode one column into a store, decode it back, clean up fully."""
    with shm.ShmStore() as store:
        handle = store.publish_block([column], len(column))
        with shm.Attachment() as attachment:
            [decoded] = shm.decode_block(handle, attachment)
            return decoded, handle.columns[0]


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

    def test_row_mask_selects_rows(self):
        with shm.ShmStore() as store:
            handle = store.publish_block([[10, 20, 30], ["a", "b", "c"]],
                                         3, row_mask=[2, 0])
            with shm.Attachment() as attachment:
                assert shm.decode_block(handle, attachment) == \
                    [[30, 10], ["c", "a"]]
                assert shm.block_rows(handle, attachment) == 2


class TestLifecycle:
    def test_store_close_unlinks_everything(self):
        store = shm.ShmStore()
        store.publish_block([[1, 2]], 2)
        store.publish_block([["x"]], 1)
        assert len(shm.scan_segments(store.prefix)) == 2
        assert store.stats.shm_segments == 2
        store.close()
        assert shm.scan_segments(store.prefix) == []
        store.close()               # idempotent

    def test_attachments_are_memoized_and_refcounted(self):
        store = shm.ShmStore()
        handle = store.publish_block([[1, 2, 3]], 3)
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
        store.publish_block([[1]], 1)
        store.publish_block([[2]], 1, disown=True)    # worker-publish mode
        assert len(shm.scan_segments(store.prefix)) == 2
        assert shm.sweep_prefix(store.prefix) == 2
        assert shm.scan_segments(store.prefix) == []
        store.close()               # post-sweep close is a no-op, not a raise

    def test_unlink_segment_missing_is_false(self):
        assert shm.unlink_segment("reproshm_never_existed") is False

    def test_scan_ignores_foreign_prefixes(self):
        store = shm.ShmStore()
        store.publish_block([[1]], 1)
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


class TestLocalPlanCache:
    def test_eligibility_threshold(self):
        cache = LocalPlanCache()
        task = get_task("fh02_region_quarter_share")
        assert not cache.eligible(TableRef(task.tables[0].name))
        assert operator_count(task.ground_truth) >= MIN_SHARED_OPERATORS
        assert cache.eligible(task.ground_truth)

    def test_publish_then_fetch_shares_by_reference(self):
        cache = LocalPlanCache()
        task = get_task("fe01_total_sales_per_region")
        columns = [[1, 2], ["a", "b"]]
        assert cache.fetch(task.ground_truth, task.env) is None
        assert cache.publish(task.ground_truth, task.env, columns, 2) == 0
        fetched = cache.fetch(task.ground_truth, task.env)
        assert fetched == (columns, 2)
        assert fetched[0] is columns          # no copy, same address space

    def test_entry_cap(self):
        cache = LocalPlanCache(max_entries=1)
        env = get_task("fe01_total_sales_per_region").env
        cache.publish(TableRef("a"), env, [[1]], 1)
        cache.publish(TableRef("b"), env, [[2]], 1)
        assert cache.fetch(TableRef("b"), env) is None

    def test_two_engines_share_sub_plan_results(self):
        """The cross-shard scenario in one address space: the second
        engine's first evaluation of a shared sub-plan is a cache hit."""
        task = get_task("fh02_region_quarter_share")
        cache = LocalPlanCache()
        first, second = make_engine("columnar"), make_engine("columnar")
        first.shared_plans = cache.client(0)
        second.shared_plans = cache.client(1)
        reference = make_engine("columnar").evaluate(task.ground_truth,
                                                     task.env)
        assert first.evaluate(task.ground_truth, task.env) == reference
        assert first.stats.cross_shard_hits == 0
        assert second.evaluate(task.ground_truth, task.env) == reference
        assert second.stats.cross_shard_hits >= 1


class TestProcessPlanClient:
    """Protocol-level tests against a plain-dict index (the DictProxy's
    get/setdefault/len/items surface) — no manager process needed."""

    @pytest.fixture
    def query_env(self):
        task = next(t for t in all_tasks()
                    if operator_count(t.ground_truth) >= MIN_SHARED_OPERATORS)
        return task.ground_truth, task.env

    def test_digest_is_stable_and_structural(self, query_env):
        query, _ = query_env
        clone = pickle.loads(pickle.dumps(query))
        assert plan_digest(query) == plan_digest(clone)
        assert plan_digest(query) != plan_digest(TableRef("t"))

    def test_publish_then_sibling_fetch(self, query_env):
        query, env = query_env
        index: dict = {}
        publisher = ProcessPlanClient(index, "reproshm_tclient0", 64)
        sibling = ProcessPlanClient(index, "reproshm_tclient1", 64)
        try:
            assert sibling.fetch(query, env) is None
            shipped = publisher.publish(query, env, [[1, 2], [0.5, 1.5]], 2)
            assert shipped > 0
            assert sibling.fetch(query, env) == ([[1, 2], [0.5, 1.5]], 2)
        finally:
            publisher.close()
            sibling.close()
            assert shm.sweep_prefix("reproshm_tclient") == 1

    def test_lost_publish_race_reclaims_segment(self, query_env):
        query, env = query_env
        index: dict = {}
        winner = ProcessPlanClient(index, "reproshm_tracew", 64)
        loser = ProcessPlanClient(index, "reproshm_tracel", 64)
        try:
            assert winner.publish(query, env, [[1]], 1) > 0
            assert loser.publish(query, env, [[1]], 1) == 0
            # The loser's segment was reclaimed on the spot...
            assert shm.scan_segments("reproshm_tracel") == []
            # ... and fetches resolve to the winner's.
            assert loser.fetch(query, env) == ([[1]], 1)
        finally:
            winner.close()
            loser.close()
            assert shm.sweep_prefix("reproshm_trace") == 1

    def test_swept_segment_fetches_as_miss(self, query_env):
        query, env = query_env
        index: dict = {}
        publisher = ProcessPlanClient(index, "reproshm_tswept", 64)
        reader = ProcessPlanClient(index, "reproshm_tswept9", 64)
        try:
            publisher.publish(query, env, [[1]], 1)
            assert shm.sweep_prefix("reproshm_tswept_") == 1
            assert reader.fetch(query, env) is None
        finally:
            publisher.close()
            reader.close()

    def test_entry_cap_stops_publishes(self, query_env):
        query, env = query_env
        client = ProcessPlanClient({"occupied": None}, "reproshm_tcap", 1)
        try:
            assert client.publish(query, env, [[1]], 1) == 0
            assert shm.scan_segments("reproshm_tcap") == []
        finally:
            client.close()

    def test_client_pickles_without_live_segments(self, query_env):
        query, env = query_env
        client = ProcessPlanClient({}, "reproshm_tpick", 64)
        client.publish(query, env, [[1]], 1)
        clone = pickle.loads(pickle.dumps(client))
        assert clone._prefix == "reproshm_tpick"
        assert clone._store is None and clone._attachment is None
        client.close()
        assert shm.sweep_prefix("reproshm_tpick") == 1
