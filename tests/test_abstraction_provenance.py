"""The abstract provenance interpreter (Fig. 11) and its three tiers."""

import pytest

from repro.abstraction import (
    ProvenanceAbstraction,
    abstract_consistent,
    abstract_eval,
)
from repro.lang import (
    Arithmetic,
    Env,
    Filter,
    Group,
    Hole,
    Join,
    Partition,
    Proj,
    Sort,
    TableRef,
)
from repro.provenance import Demonstration, cell, func, partial_func
from repro.provenance.expr import CellRef
from repro.provenance.refs import refs_of
from repro.semantics import evaluate_tracking
from repro.table import Table

H = Hole


@pytest.fixture
def env(tiny_table):
    return Env.of(tiny_table)


def _refs(table_name, *pairs):
    return frozenset(CellRef(table_name, i, j) for i, j in pairs)


class TestBaseAndLift:
    def test_concrete_query_lifts_tracking(self, env):
        q = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        abs_t = abstract_eval(q, env)
        tracked = evaluate_tracking(q, env)
        for i in range(abs_t.n_rows):
            for j in range(abs_t.n_cols):
                assert abs_t.cell(i, j).refs == refs_of(tracked.exprs[i][j])
                assert abs_t.cell(i, j).known

    def test_table_ref_cells(self, env):
        abs_t = abstract_eval(TableRef("T"), env)
        assert abs_t.cell(2, 1).refs == _refs("T", (2, 1))


class TestWeakTier:
    def test_weak_partition_new_column_is_everything(self, env):
        q = Partition(TableRef("T"), keys=H("keys"), agg_func=H("agg_func"),
                      agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        assert abs_t.n_cols == 4
        everything = _refs("T", *[(i, j) for i in range(5) for j in range(3)])
        assert abs_t.cell(0, 3).refs == everything
        # existing columns pass through untouched
        assert abs_t.cell(1, 0).refs == _refs("T", (1, 0))

    def test_weak_group_collapses_columns(self, env):
        q = Group(TableRef("T"), keys=H("keys"), agg_func=H("agg_func"),
                  agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        # column c may draw from any row of column c
        assert abs_t.cell(0, 1).refs == _refs("T", *[(i, 1) for i in range(5)])
        assert abs_t.n_rows == 5  # up to one group per row

    def test_weak_arithmetic_uses_own_row(self, env):
        q = Arithmetic(TableRef("T"), func=H("func"), cols=H("cols"))
        abs_t = abstract_eval(q, env)
        assert abs_t.cell(1, 3).refs == _refs("T", (1, 0), (1, 1), (1, 2))


class TestMediumTier:
    def _abstract_valued_child(self):
        # The inner group's aggregate column has *unknown values* (function
        # hole), so an outer operator keyed on it lands in the medium tier.
        return Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                     agg_col=H("agg_col"))

    def test_medium_group_restricts_to_non_keys(self, env):
        q = Group(self._abstract_valued_child(), keys=(1,),
                  agg_func=H("agg_func"), agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        assert abs_t.n_cols == 2
        # the only non-key child column is the group-key column (col 0),
        # whose refs are the original ID column cells
        expected = _refs("T", *[(i, 0) for i in range(5)])
        assert abs_t.cell(0, 1).refs == expected

    def test_medium_partition_excludes_key_columns(self, env):
        q = Partition(self._abstract_valued_child(), keys=(1,),
                      agg_func=H("agg_func"), agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        child = abstract_eval(self._abstract_valued_child(), env)
        key_refs = frozenset().union(*(c.refs for c in child.column(1)))
        for i in range(abs_t.n_rows):
            assert not (abs_t.cell(i, 2).refs & key_refs)

    def test_rows_not_exact_below_pred_hole(self, env):
        child = Filter(TableRef("T"), pred=H("pred"))
        abs_t = abstract_eval(child, env)
        assert not abs_t.rows_exact
        # but the surviving cells keep exact value shadows
        assert abs_t.cell(0, 0).known


class TestStrongTier:
    def test_strong_partition_per_group_refs(self, env):
        q = Partition(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                      agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        # row 0 is in group A (rows 0-2); non-key columns 1, 2
        expected = _refs("T", *[(i, j) for i in range(3) for j in (1, 2)])
        assert abs_t.cell(0, 3).refs == expected

    def test_target_refinement_restricts_to_column(self, env):
        q = Partition(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                      agg_col=2)
        refined = abstract_eval(q, env, target_refinement=True)
        assert refined.cell(0, 3).refs == _refs("T", (0, 2), (1, 2), (2, 2))
        unrefined = abstract_eval(q, env, target_refinement=False)
        assert refined.cell(0, 3).refs < unrefined.cell(0, 3).refs

    def test_strong_group_one_row_per_group(self, env):
        q = Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                  agg_col=H("agg_col"))
        abs_t = abstract_eval(q, env)
        assert abs_t.n_rows == 2

    def test_aggregate_shadow_value_when_known(self, env):
        q = Group(TableRef("T"), keys=(0,), agg_func="sum", agg_col=2)
        # wrap so the whole query is still partial
        q2 = Arithmetic(q, func=H("func"), cols=H("cols"))
        abs_t = abstract_eval(q2, env)
        assert abs_t.cell(0, 1).known
        assert abs_t.cell(0, 1).value == 45


class TestStructuralOps:
    def test_join_cross_product(self, tiny_table):
        other = Table.from_rows("N", ["ID"], [["A"], ["B"]])
        env = Env.of(tiny_table, other)
        q = Join(TableRef("T"), TableRef("N"), pred=H("pred"))
        abs_t = abstract_eval(q, env)
        assert abs_t.n_rows == 10
        assert not abs_t.rows_exact

    def test_sort_and_proj_pass_through(self, env):
        base = Partition(TableRef("T"), keys=H("keys"),
                         agg_func=H("agg_func"), agg_col=H("agg_col"))
        sorted_q = Sort(base, cols=H("cols"), ascending=H("ascending"))
        assert abstract_eval(sorted_q, env) == abstract_eval(base, env)
        proj_q = Proj(base, cols=(1, 3))
        abs_t = abstract_eval(proj_q, env)
        assert abs_t.n_cols == 2


class TestPaperPruningScenario:
    """§2.2 / Fig. 6: q_B is pruned, the correct skeleton path survives."""

    def _demo(self):
        return Demonstration.of([
            [cell("T", 0, 0), cell("T", 0, 1),
             func("percent", func("sum", cell("T", 0, 3), cell("T", 1, 3)),
                  cell("T", 0, 4))],
            [cell("T", 6, 0), cell("T", 6, 1),
             func("percent",
                  partial_func("sum", cell("T", 0, 3), cell("T", 1, 3),
                               cell("T", 7, 3)),
                  cell("T", 6, 4))],
        ])

    def test_qb_is_pruned(self, health_env):
        qb = Arithmetic(Group(TableRef("T"), keys=(0, 1, 4),
                              agg_func=H("agg_func"), agg_col=H("agg_col")),
                        func=H("func"), cols=H("cols"))
        prov = ProvenanceAbstraction()
        assert not prov.feasible(qb, health_env, self._demo())

    def test_correct_path_survives(self, health_env):
        good = Arithmetic(
            Partition(Group(TableRef("T"), keys=(0, 1, 4),
                            agg_func=H("agg_func"), agg_col=H("agg_col")),
                      keys=H("keys"), agg_func=H("agg_func"),
                      agg_col=H("agg_col")),
            func=H("func"), cols=H("cols"))
        prov = ProvenanceAbstraction()
        assert prov.feasible(good, health_env, self._demo())

    def test_fully_abstract_skeleton_survives(self, health_env):
        skel = Arithmetic(Group(TableRef("T"), keys=H("keys"),
                                agg_func=H("agg_func"), agg_col=H("agg_col")),
                          func=H("func"), cols=H("cols"))
        prov = ProvenanceAbstraction()
        assert prov.feasible(skel, health_env, self._demo())


class TestValueShadowRefinement:
    def test_wrong_function_refuted_by_value(self, env):
        # demo demands sum(10, 20, 15) = 45 for group A; a proj-with-hole on
        # top keeps the query partial without adding shielding columns
        demo = Demonstration.of([
            [cell("T", 0, 0), func("sum", cell("T", 0, 2), cell("T", 1, 2),
                                   cell("T", 2, 2))],
            [cell("T", 3, 0), func("sum", cell("T", 3, 2), cell("T", 4, 2))],
        ])
        wrong = Proj(Group(TableRef("T"), keys=(0,), agg_func="avg",
                           agg_col=2), cols=H("cols"))
        right = Proj(Group(TableRef("T"), keys=(0,), agg_func="sum",
                           agg_col=2), cols=H("cols"))
        strict = ProvenanceAbstraction(value_shadow=True)
        loose = ProvenanceAbstraction(value_shadow=False)
        assert not strict.feasible(wrong, env, demo)
        assert strict.feasible(right, env, demo)
        # without the refinement, refs cannot tell the functions apart
        assert loose.feasible(wrong, env, demo)

    def test_partial_demo_cells_never_value_checked(self, env):
        demo = Demonstration.of([
            [cell("T", 0, 0), partial_func("sum", cell("T", 0, 2))],
            [cell("T", 3, 0), partial_func("sum", cell("T", 3, 2))],
        ])
        q = Arithmetic(Group(TableRef("T"), keys=(0,), agg_func="avg",
                             agg_col=2),
                       func=H("func"), cols=H("cols"))
        # avg's value differs from any sum, but the demo cells are partial,
        # so the value refinement must not fire
        assert ProvenanceAbstraction().feasible(q, env, demo)


class TestAnalyzerRetention:
    """bind_engine keeps the session analyzer pinned and LRU-evicts
    override analyzers — an explicit policy, not dict-iteration luck."""

    def _engines(self, n):
        from repro.engine import RowEngine
        return [RowEngine() for _ in range(n)]

    def test_session_analyzer_survives_many_rebinds(self):
        prov = ProvenanceAbstraction()
        engines = self._engines(8)          # held alive: ids stay unique
        prov.bind_engine(engines[0])
        session = prov.analyzer
        for engine in engines[1:]:
            prov.bind_engine(engine)
        assert len(prov._analyzers) <= ProvenanceAbstraction.MAX_ANALYZERS
        prov.bind_engine(engines[0])
        assert prov.analyzer is session     # pinned, never evicted

    def test_override_eviction_is_lru(self):
        prov = ProvenanceAbstraction()
        engines = self._engines(6)
        for engine in engines[:4]:          # session + 3 overrides: at cap
            prov.bind_engine(engine)
        analyzers = {id(e): prov._analyzers[id(e)] for e in engines[:4]}
        prov.bind_engine(engines[1])        # refresh override 1's recency
        prov.bind_engine(engines[4])        # evicts override 2 (LRU), not 1
        assert id(engines[2]) not in prov._analyzers
        assert prov._analyzers[id(engines[1])] is analyzers[id(engines[1])]
        assert prov._analyzers[id(engines[0])] is analyzers[id(engines[0])]

    def test_rebind_reuses_retained_analyzer(self):
        prov = ProvenanceAbstraction()
        engines = self._engines(3)
        for engine in engines:
            prov.bind_engine(engine)
        first = prov._analyzers[id(engines[1])]
        prov.bind_engine(engines[1])
        assert prov.analyzer is first

    def test_stale_id_entry_replaced_not_reused(self):
        # Simulate id() reuse: poke an entry whose analyzer points at a
        # *different* engine object under the new engine's key.
        from repro.engine import RowEngine
        from repro.abstraction.provenance_abs import ProvenanceAnalyzer
        prov = ProvenanceAbstraction()
        old_engine, new_engine = RowEngine(), RowEngine()
        stale = ProvenanceAnalyzer(old_engine)
        prov._analyzers[id(new_engine)] = stale
        prov.bind_engine(new_engine)
        assert prov.analyzer is not stale
        assert prov.analyzer.engine is new_engine


class TestDemoMasks:
    """The per-(demo, env) Definition-3 state is instance-owned and
    identity-safe."""

    def _demo(self):
        return Demonstration.of([
            [cell("T", 0, 0), func("sum", cell("T", 0, 2), cell("T", 1, 2),
                                   cell("T", 2, 2))],
            [cell("T", 3, 0), func("sum", cell("T", 3, 2), cell("T", 4, 2))],
        ])

    def test_no_module_global_cache(self):
        import repro.abstraction.consistency as consistency
        assert not hasattr(consistency, "_DEMO_CACHE")

    def test_instances_do_not_share_entries(self, env):
        a, b = ProvenanceAbstraction(), ProvenanceAbstraction()
        demo = self._demo()
        q = Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                  agg_col=H("agg_col"))
        assert a.feasible(q, env, demo)
        assert len(a._masks) > 0
        assert len(b._masks) == 0

    def test_stale_env_identity_is_recomputed(self, env):
        """A recycled Env id must never surface another env's values.

        A state pins and identity-checks both its demonstration and its
        environment; a poked stale state must be ignored and replaced.
        """
        prov = ProvenanceAbstraction()
        demo = self._demo()
        other_env = Env.of(Table.from_rows("T", ["a", "b", "c"],
                                           [["x", 0, 0]] * 5))
        stale = prov.masks(demo, other_env)
        prov._masks[(id(demo), id(env))] = stale
        state = prov.masks(demo, env)
        assert state is not stale
        assert state.env is env
        # sum(10, 20, 15) under *env*
        assert state.demo_columns[1][0][2] == 45

    def test_reset_clears_demo_state(self, env):
        prov = ProvenanceAbstraction()
        prov.feasible(Group(TableRef("T"), keys=(0,), agg_func=H("agg_func"),
                            agg_col=H("agg_col")), env, self._demo())
        assert len(prov._masks) > 0
        prov.reset()
        assert len(prov._masks) == 0
