"""The evaluation engine layer: caches, backends, isolation."""

import pytest

from repro.engine import (
    BACKENDS,
    BoundedCache,
    ColumnarEngine,
    ColumnBlock,
    RowEngine,
    make_engine,
)
from repro.engine.columns import (
    arithmetic_block,
    cross_join,
    filter_block,
    group_block,
    join_blocks,
    left_join_blocks,
    partition_block,
    predicate_mask,
    select_columns,
    sort_block,
)
from repro.errors import HoleError
from repro.lang import (
    Arithmetic,
    Env,
    Filter,
    Group,
    Hole,
    Join,
    LeftJoin,
    Partition,
    Proj,
    Sort,
    TableRef,
)
from repro.lang.predicates import AndPred, ColCmp, ConstCmp, TruePred
from repro.table.table import Table


@pytest.fixture
def table():
    return Table.from_rows(
        "T", ["City", "Quarter", "Amount"],
        [["A", 1, 10], ["A", 2, 20], ["B", 1, 30], ["B", 2, 40], ["A", 1, 5]])


@pytest.fixture
def env(table):
    return Env.of(table)


@pytest.fixture
def lookup():
    return Table.from_rows("L", ["City", "Region"],
                           [["A", "north"], ["B", "south"]])


class TestBoundedCache:
    def test_roundtrip(self):
        c = BoundedCache(10)
        c["a"] = 1
        assert c["a"] == 1
        assert c.get("missing") is None
        assert len(c) == 1

    def test_eviction_is_lru(self):
        c = BoundedCache(2)
        c["a"], c["b"] = 1, 2
        _ = c["a"]          # refresh "a"
        c["c"] = 3          # evicts "b"
        assert "a" in c and "c" in c and "b" not in c

    def test_unbounded(self):
        c = BoundedCache(None)
        for i in range(1000):
            c[i] = i
        assert len(c) == 1000

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BoundedCache(0)


class TestMakeEngine:
    def test_factory_names(self):
        assert make_engine("row").name == "row"
        assert make_engine("columnar").name == "columnar"

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_engine("gpu")

    def test_backends_are_row_and_columnar(self):
        from repro.synthesis.config import SynthesisConfig
        assert BACKENDS == ("row", "columnar")
        with pytest.raises(ValueError, match="unknown backend"):
            SynthesisConfig(backend="numpy")
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_engine("numpy")

    def test_public_api_does_not_import_numpy(self):
        """The library is pure Python: importing the facade (and with it
        every engine) must leave NumPy unloaded, in a fresh interpreter
        where no other test could have imported it."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = ("import sys, repro.api, repro.engine; "
                 "print('numpy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


@pytest.mark.parametrize("engine_cls", [RowEngine, ColumnarEngine])
class TestEngineContract:
    def test_evaluate_matches_semantics(self, engine_cls, env):
        from repro.semantics import evaluate
        q = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        assert engine_cls().evaluate(q, env) == evaluate(q, env)

    def test_tracking_matches_semantics(self, engine_cls, env):
        from repro.semantics import evaluate_tracking
        q = Partition(TableRef("T"), keys=(0,), agg_func="cumsum", agg_col=2)
        assert engine_cls().evaluate_tracking(q, env) == evaluate_tracking(q, env)

    def test_partial_query_raises(self, engine_cls, env):
        q = Group(TableRef("T"), keys=Hole("keys"), agg_func="sum", agg_col=2)
        with pytest.raises(HoleError):
            engine_cls().evaluate(q, env)
        with pytest.raises(HoleError):
            engine_cls().evaluate_tracking(q, env)

    def test_cache_hits_counted(self, engine_cls, env):
        engine = engine_cls()
        q = Sort(TableRef("T"), cols=(2,), ascending=False)
        first = engine.evaluate(q, env)
        second = engine.evaluate(q, env)
        assert first is second
        assert engine.stats.concrete_hits == 1
        assert engine.stats.concrete_evals == 1

    def test_reset_drops_state(self, engine_cls, env):
        engine = engine_cls()
        q = TableRef("T")
        engine.evaluate(q, env)
        engine.evaluate_tracking(q, env)
        engine.reset()
        assert engine.stats.concrete_evals == 0
        engine.evaluate(q, env)
        assert engine.stats.concrete_hits == 0
        assert engine.stats.concrete_evals == 1

    def test_engines_do_not_share_state(self, engine_cls, env):
        a, b = engine_cls(), engine_cls()
        q = TableRef("T")
        a.evaluate(q, env)
        assert b.stats.concrete_evals == 0
        b.evaluate(q, env)
        assert b.stats.concrete_hits == 0  # b computed, not served from a

    def test_shared_prefix_computed_once(self, engine_cls, env):
        engine = engine_cls()
        base = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        for func in ("sum", "max", "min", "count"):
            q = Arithmetic(Group(TableRef("T"), keys=(0,), agg_func=func,
                                 agg_col=2), func="div", cols=(1, 1))
            engine.evaluate(q, env)
        # The TableRef (and the sum-Group) subtree results were reused.
        assert engine.evaluate(base, env) is engine.evaluate(base, env)


class TestRowColumnarEquivalence:
    """The two backends are byte-for-byte interchangeable."""

    def _queries(self):
        t = TableRef("T")
        return [
            t,
            Filter(t, ConstCmp(2, ">", 10)),
            Filter(t, ColCmp(2, ">", 1)),
            Proj(t, cols=(2, 0)),
            Proj(t, cols=(0, 0)),
            Sort(t, cols=(2,), ascending=True),
            Sort(t, cols=(0,), ascending=False),
            Group(t, keys=(0,), agg_func="avg", agg_col=2),
            Group(t, keys=(0, 1), agg_func="count", agg_col=2),
            Group(t, keys=(), agg_func="sum", agg_col=2),
            Partition(t, keys=(0,), agg_func="cumsum", agg_col=2),
            Partition(t, keys=(), agg_func="rank", agg_col=2),
            Partition(t, keys=(1,), agg_func="max", agg_col=2),
            Arithmetic(t, func="div", cols=(2, 1)),
            Arithmetic(Group(t, keys=(0,), agg_func="sum", agg_col=2),
                       func="percent", cols=(1, 1)),
        ]

    def test_single_table_queries(self, env):
        row, col = RowEngine(), ColumnarEngine()
        for q in self._queries():
            assert row.evaluate(q, env) == col.evaluate(q, env), q

    def test_join_queries(self, table, lookup):
        env = Env.of(table, lookup)
        t, l = TableRef("T"), TableRef("L")
        queries = [
            Join(t, l),                                   # cross product
            Join(t, l, pred=ColCmp(0, "==", 3)),          # equi-join
            Join(t, l, pred=ColCmp(0, "==", 0)),          # degenerate (left-left)
            Join(t, l, pred=ColCmp(3, "==", 3)),          # degenerate (right-right)
            LeftJoin(t, l, pred=ColCmp(0, "==", 3)),
            LeftJoin(t, l, pred=ColCmp(2, "==", 3)),      # no matches: padding
            Join(t, l, pred=AndPred((ColCmp(0, "==", 3), TruePred()))),
        ]
        row, col = RowEngine(), ColumnarEngine()
        for q in queries:
            assert row.evaluate(q, env) == col.evaluate(q, env), q

    def test_empty_results_match(self, env):
        row, col = RowEngine(), ColumnarEngine()
        q = Group(Filter(TableRef("T"), ConstCmp(2, ">", 1_000_000)),
                  keys=(0,), agg_func="sum", agg_col=2)
        assert row.evaluate(q, env) == col.evaluate(q, env)


class TestColumnBlockKernels:
    def _block(self, table):
        return ColumnBlock.from_table(table)

    def test_roundtrip(self, table):
        block = self._block(table)
        assert block.n_rows == table.n_rows
        assert block.n_cols == table.n_cols
        assert block.row_tuples() == list(table.rows)

    def test_select_shares_columns(self, table):
        block = self._block(table)
        picked = select_columns(block, (2, 0))
        assert picked.columns[0] is block.columns[2]
        assert picked.columns[1] is block.columns[0]

    def test_append_only_operators_share_columns(self, table):
        block = self._block(table)
        part = partition_block(block, (0,), "sum", 2)
        arith = arithmetic_block(block, "add", (2, 2))
        for j in range(block.n_cols):
            assert part.columns[j] is block.columns[j]
            assert arith.columns[j] is block.columns[j]

    def test_predicate_mask_matches_rowwise(self, table):
        block = self._block(table)
        preds = [TruePred(), ConstCmp(2, ">=", 20), ColCmp(1, "<", 2),
                 AndPred((ConstCmp(0, "==", "A"), ConstCmp(2, ">", 5)))]
        for pred in preds:
            mask = predicate_mask(pred, block)
            assert mask == [pred.evaluate(r) for r in table.rows]

    def test_filter_all_pass_reuses_block(self, table):
        block = self._block(table)
        assert filter_block(block, TruePred()) is block

    def test_cross_join_order(self):
        left = ColumnBlock([[1, 2]], 2)
        right = ColumnBlock([["x", "y"]], 2)
        crossed = cross_join(left, right)
        assert crossed.row_tuples() == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_join_blocks_pred_none_is_cross(self):
        left = ColumnBlock([[1, 2]], 2)
        right = ColumnBlock([["x"]], 1)
        assert join_blocks(left, right, None).row_tuples() == \
            cross_join(left, right).row_tuples()

    def test_left_join_pads_unmatched(self):
        left = ColumnBlock([[1, 2, 3]], 3)
        right = ColumnBlock([[2, 3], ["b", "c"]], 2)
        out = left_join_blocks(left, right, ColCmp(0, "==", 1))
        assert out.row_tuples() == [(1, None, None), (2, 2, "b"), (3, 3, "c")]

    def test_sort_block_is_stable(self, table):
        block = self._block(table)
        out = sort_block(block, (0,), ascending=True)
        # Ties on "A" keep original relative order (stable sort).
        assert [r[2] for r in out.row_tuples()] == [10, 20, 5, 30, 40]

    def test_group_block_first_occurrence_order(self, table):
        block = self._block(table)
        out = group_block(block, (0,), "sum", 2)
        assert out.row_tuples() == [("A", 35), ("B", 70)]


class TestMixedDtypeOrdering:
    """Sort/aggregate kernels over mixed dtypes and NULLs, row vs columnar.

    The contract under test (pinned while building the cross-backend fuzz
    harness): the columnar engine orders values exactly like the row
    engine's ``value_sort_key`` — numbers < strings < booleans < NULL,
    NULLs last ascending and therefore first descending — and aggregates
    skip NULLs identically.  The edge-case inputs below (NUL-bearing
    strings, signed-zero ties, ints at the float-exactness bound, products
    past int64, mixed NULL/bool columns) are the ones fixed-width
    representations get wrong; exact Python values must survive them.
    """

    def _mixed_env(self):
        rows = [(3, "b", None), (None, "a", 2.0), (2.5, None, 2),
                (True, "a\x00", 10**13), ("x", "", -1), (2, "a", 2.0000001)]
        return Env.of(Table.from_rows("M", ["k", "s", "v"], rows))

    def _assert_columnar_matches_row(self, queries, env):
        for query in queries:
            # Fresh engines per query: every comparison starts cold.
            reference = RowEngine()
            expected = reference.evaluate(query, env)
            engine = ColumnarEngine()
            actual = engine.evaluate(query, env)
            # repr, not ==: 0.0 == -0.0 and 1 == True would hide a
            # backend that picks the other representative.
            assert repr(actual.rows) == repr(expected.rows), query
            assert actual.schema == expected.schema, query
            assert engine.evaluate_tracking(query, env) == \
                reference.evaluate_tracking(query, env), query

    def test_sort_null_ordering_matches_row_engine(self):
        env = self._mixed_env()
        t = TableRef("M")
        queries = [Sort(t, cols=(0,), ascending=True),
                   Sort(t, cols=(0,), ascending=False),
                   Sort(t, cols=(1, 2), ascending=True),
                   Sort(t, cols=(2, 1), ascending=False)]
        self._assert_columnar_matches_row(queries, env)

    def test_sort_null_last_ascending_first_descending(self):
        env = self._mixed_env()
        rows_asc = make_engine("columnar").evaluate(
            Sort(TableRef("M"), cols=(0,), ascending=True), env).rows
        rows_desc = make_engine("columnar").evaluate(
            Sort(TableRef("M"), cols=(0,), ascending=False), env).rows
        assert rows_asc[-1][0] is None      # NULL sorts last ascending
        assert rows_desc[0][0] is None      # and first descending
        # Class order ascending: numbers, then strings, then bools, NULL.
        assert [r[0] for r in rows_asc] == [2, 2.5, 3, "x", True, None]

    def test_aggregates_skip_nulls_identically(self):
        env = self._mixed_env()
        t = TableRef("M")
        queries = [Group(t, keys=(1,), agg_func=f, agg_col=0)
                   for f in ("max", "min", "count")]
        queries += [Partition(t, keys=(), agg_func=f, agg_col=0)
                    for f in ("max", "min", "count", "cummax", "cummin",
                              "rank", "rank_desc", "dense_rank")]
        self._assert_columnar_matches_row(queries, env)

    def test_rank_of_null_matches_row_engine(self):
        env = Env.of(Table.from_rows(
            "M", ["v"], [(5,), (None,), (1,), (None,), (5,)]))
        queries = [Partition(TableRef("M"), keys=(), agg_func=f, agg_col=0)
                   for f in ("rank", "rank_desc", "cumsum", "cumavg",
                             "cummax", "cummin", "count")]
        self._assert_columnar_matches_row(queries, env)

    def test_nul_bearing_strings_match_row_engine(self):
        """Trailing and lone NUL codepoints are significant: "a\\x00"
        must not compare equal to "a", nor "\\x00" to ""."""
        env = Env.of(Table.from_rows(
            "M", ["a", "b"],
            [("a\x00", "a"), ("b", "b"), ("\x00", ""), ("a", "a\x00")]))
        t = TableRef("M")
        queries = [Filter(t, ColCmp(0, op, 1))
                   for op in ("==", "!=", "<", ">=")]
        queries += [Filter(t, ConstCmp(0, "==", const))
                    for const in ("a", "a\x00", "", "\x00")]
        queries += [Sort(t, cols=(0,), ascending=True),
                    Sort(t, cols=(1, 0), ascending=False),
                    Group(t, keys=(0,), agg_func="count", agg_col=1),
                    Partition(t, keys=(1,), agg_func="rank", agg_col=0)]
        self._assert_columnar_matches_row(queries, env)
        q = Filter(t, ColCmp(0, "==", 1))
        assert ColumnarEngine().evaluate(q, env).rows == (("b", "b"),)

    def test_negative_zero_ties_match_row_engine_bitwise(self):
        """min/max reductions and running accumulators must keep the
        signed zero the reference fold keeps (fuzz-harness finding)."""
        env = Env.of(Table.from_rows("M", ["k", "v"],
                                     [("a", 0.0), ("a", -0.0),
                                      ("b", -0.0), ("b", 0.0)]))
        t = TableRef("M")
        queries = [Group(t, keys=(0,), agg_func=f, agg_col=1)
                   for f in ("max", "min", "sum")]
        queries += [Partition(t, keys=(0,), agg_func=f, agg_col=1)
                    for f in ("cummax", "cummin", "cumsum", "rank")]
        queries += [Sort(t, cols=(1,), ascending=True),
                    Filter(t, ConstCmp(1, "==", 0.0))]
        self._assert_columnar_matches_row(queries, env)

    def test_ints_near_float_exactness_bound_match_row_engine(self):
        """Ints around 2**52..2**53 stay exact Python ints: neighbours
        that collapse to one double must still compare and sum apart."""
        big = 2**53
        env = Env.of(Table.from_rows(
            "M", ["k", "v", "w"],
            [("a", 2**52, 2**52 + 1), ("a", big + 1, big),
             ("b", -(big) - 3, -(2**52)), ("b", big, float(big))]))
        t = TableRef("M")
        queries = [Filter(t, ColCmp(1, op, 2))
                   for op in ("==", "!=", "<", ">")]
        queries += [Filter(t, ConstCmp(1, "==", big + 1)),
                    Sort(t, cols=(1,), ascending=False)]
        queries += [Group(t, keys=(0,), agg_func=f, agg_col=1)
                    for f in ("sum", "avg", "max", "min")]
        queries += [Partition(t, keys=(), agg_func=f, agg_col=1)
                    for f in ("cumsum", "rank", "dense_rank_desc")]
        queries += [Arithmetic(t, func=f, cols=(1, 2))
                    for f in ("add", "sub", "div")]
        self._assert_columnar_matches_row(queries, env)

    def test_int64_overflowing_products_match_row_engine(self):
        """Products and sums past int64 promote to big Python ints, never
        wrap around."""
        env = Env.of(Table.from_rows(
            "M", ["k", "x", "y"],
            [("a", 2**62, 4), ("a", 2**63 - 1, 2**63 - 1),
             ("b", -(2**63), 2), ("b", 3, -(2**62))]))
        t = TableRef("M")
        queries = [Arithmetic(t, func=f, cols=(1, 2))
                   for f in ("mul", "add", "sub", "percent")]
        queries += [Group(t, keys=(0,), agg_func="sum", agg_col=1),
                    Partition(t, keys=(), agg_func="cumsum", agg_col=1),
                    Sort(t, cols=(1,), ascending=True)]
        self._assert_columnar_matches_row(queries, env)
        mul = ColumnarEngine().evaluate(Arithmetic(t, func="mul",
                                                   cols=(1, 2)), env)
        assert mul.rows[0][-1] == 2**64

    def test_mixed_null_bool_columns_match_row_engine(self):
        """Bools are their own sort class (not 0/1) and NULLs are skipped
        by aggregates — also in columns holding nothing else."""
        env = Env.of(Table.from_rows(
            "M", ["k", "b", "n"],
            [("a", True, 1), ("a", None, 0), ("b", False, None),
             ("b", None, True), ("a", False, False)]))
        t = TableRef("M")
        queries = [Filter(t, ConstCmp(1, op, const))
                   for op in ("==", "!=", "<")
                   for const in (True, False, 1, 0, None)]
        queries += [Filter(t, ColCmp(1, "==", 2)),
                    Sort(t, cols=(1,), ascending=True),
                    Sort(t, cols=(2, 1), ascending=False)]
        queries += [Group(t, keys=(1,), agg_func="count", agg_col=2),
                    Group(t, keys=(0,), agg_func="max", agg_col=1)]
        queries += [Partition(t, keys=(0,), agg_func=f, agg_col=1)
                    for f in ("count", "cummax", "rank", "dense_rank")]
        self._assert_columnar_matches_row(queries, env)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bool_and_int_constants_are_distinct_cache_keys(self, backend):
        """``True`` and ``1`` hash alike but are different constants: one
        engine must not answer the second filter from the first's cache."""
        env = Env.of(Table.from_rows(
            "M", ["k", "b"], [("a", True), ("b", 1), ("c", False), ("d", 0)]))
        engine = make_engine(backend)
        as_true = engine.evaluate(
            Filter(TableRef("M"), ConstCmp(1, "==", True)), env)
        as_one = engine.evaluate(
            Filter(TableRef("M"), ConstCmp(1, "==", 1)), env)
        assert [row[0] for row in as_true.rows] == ["a"]
        assert [row[0] for row in as_one.rows] == ["b"]
        assert ConstCmp(1, "==", True) != ConstCmp(1, "==", 1)

    def test_float_overflow_matches_row_engine(self):
        """Python float arithmetic overflows silently to inf; the columnar
        kernels must produce the same inf cells without warnings."""
        import warnings
        env = Env.of(Table.from_rows(
            "M", ["a", "b"],
            [(1e308, 1e308), (1e308, -1e308), (1e308, 1e-308), (2.0, 3.0)]))
        t = TableRef("M")
        queries = [Arithmetic(t, func=f, cols=(0, 1))
                   for f in ("add", "sub", "mul", "div", "percent",
                             "pct_change")]
        queries += [Filter(t, ColCmp(0, op, 1))
                    for op in ("==", "!=", "<", ">=")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._assert_columnar_matches_row(queries, env)

    def test_float_equality_tolerance_matches_value_eq(self):
        from repro.table.values import value_eq
        values = [0.3, 0.1 + 0.2, 1.0, 1.0 + 1e-12, 2.0, -0.0, 0.0, 1e12,
                  1e12 + 1.0]
        env = Env.of(Table.from_rows("M", ["v"], [(v,) for v in values]))
        for const in (0.3, 1.0, 0.0, 1e12, 2):
            q = Filter(TableRef("M"), ConstCmp(0, "==", const))
            expected = tuple((v,) for v in values if value_eq(v, const))
            assert ColumnarEngine().evaluate(q, env).rows == expected
            assert RowEngine().evaluate(q, env).rows == expected

    def test_cross_class_comparisons_match(self):
        env = self._mixed_env()
        t = TableRef("M")
        queries = [Filter(t, ConstCmp(0, op, const))
                   for op in ("==", "!=", "<", "<=", ">", ">=")
                   for const in (2, "a", True, None, 2.0000001)]
        queries += [Filter(t, ColCmp(0, op, 2))
                    for op in ("==", "!=", "<", ">=")]
        self._assert_columnar_matches_row(queries, env)


class TestSessionEngineContracts:
    """Regressions from review: engine supply, override hygiene, pickling."""

    def _task(self):
        from repro.benchmarks import get_task
        return get_task("fe01_total_sales_per_region")

    def test_supplied_engine_is_used(self):
        from repro.synthesis.synthesizer import Synthesizer
        task = self._task()
        engine = RowEngine()
        s = Synthesizer("provenance", task.config.replace(max_visited=100),
                        engine=engine)
        s.run(task.tables, task.demonstration)
        assert s.engine is engine
        assert s.config.backend == "row"
        assert engine.stats.concrete_evals + engine.stats.tracking_evals > 0

    def test_backend_override_keeps_session_state(self):
        from repro.synthesis.synthesizer import Synthesizer
        task = self._task()
        s = Synthesizer("provenance",
                        task.config.replace(backend="columnar",
                                            max_visited=100))
        base = s.run(task.tables, task.demonstration)
        session_analyzer = s.abstraction.analyzer
        for _ in range(8):   # repeated overrides must not leak analyzers
            override = s.run(task.tables, task.demonstration,
                             config=task.config.replace(backend="row",
                                                        max_visited=100))
            assert override.queries == base.queries
        assert s.engine.name == "columnar"
        assert s.abstraction.analyzer is session_analyzer
        assert len(s.abstraction._analyzers) <= 4

    def test_cached_hashes_not_pickled(self):
        import pickle
        task = self._task()
        for obj in (task.tables[0], task.env, task.ground_truth):
            hash(obj)  # populate the per-process cache
            clone = pickle.loads(pickle.dumps(obj))
            assert "_hash" not in clone.__dict__
            assert clone == obj and hash(clone) == hash(obj)
