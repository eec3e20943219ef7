"""Definition 3: the column-mask kernel against a naive reference.

The reference keeps the original semantics of ``abstract_consistent``: a
``cell_ok`` judgment over every row of the abstract table, searched through
:func:`repro.util.matching.embedding_exists`, with no row dedup and no
memo.  The kernel must give the same verdict on every partial query the
registry tasks visit, with the value-shadow and head-typing refinements on
and off, and its verdicts must not depend on the order of demo rows or
demo columns.
"""

from __future__ import annotations

import pytest

from repro.abstraction.cells import AbstractTable, head_matches
from repro.abstraction.consistency import DemoMasks, abstract_consistent
from repro.abstraction.provenance_abs import ProvenanceAbstraction
from repro.benchmarks import all_tasks
from repro.engine.base import EngineStats
from repro.errors import ExpressionError
from repro.lang.functions import function_spec
from repro.provenance.demo import Demonstration
from repro.provenance.expr import FuncApp
from repro.provenance.refs import refs_of
from repro.synthesis.synthesizer import Synthesizer
from repro.table.values import value_eq
from repro.util.matching import embedding_exists

MAX_VISITED = 500
FLAGS = [(True, True), (False, False)]


def naive_abstract_consistent(table: AbstractTable, demo: Demonstration,
                              env, value_shadow: bool,
                              head_typing: bool) -> bool:
    """``E ◁ T◦`` judged cell by cell over every row."""
    missing = object()

    def demo_value(expr):
        try:
            return expr.evaluate(env)
        except ExpressionError:
            return missing

    refs = [[refs_of(e) for e in row] for row in demo.cells]
    heads = [[function_spec(e.func).kind if isinstance(e, FuncApp) else "ref"
              for e in row] for row in demo.cells]
    values = [[demo_value(e) for e in row] for row in demo.cells]
    rows = [table.row(r) for r in range(table.n_rows)]

    def cell_ok(i: int, j: int, r: int, c: int) -> bool:
        cell = rows[r][c]
        if not refs[i][j] <= cell.refs:
            return False
        if head_typing and not head_matches(heads[i][j], cell.head):
            return False
        if value_shadow and cell.known and values[i][j] is not missing \
                and not value_eq(cell.value, values[i][j]):
            return False
        return True

    return embedding_exists(demo.n_rows, demo.n_cols, table.n_rows,
                            table.n_cols, cell_ok)


class _Recording(ProvenanceAbstraction):
    """Records every abstract table Definition 3 judges, in visit order."""

    def __init__(self) -> None:
        super().__init__()
        self.tables: list[AbstractTable] = []

    def feasible(self, query, env, demo) -> bool:
        self.tables.append(self.analyzer.abstract_eval(
            query, env, self.target_refinement))
        return super().feasible(query, env, demo)


@pytest.fixture(scope="module")
def visited():
    """(task, abstract tables in visit order) for every registry task,
    searched with both refinements on."""
    out = []
    for task in all_tasks():
        abstraction = _Recording()
        config = task.config.replace(max_visited=MAX_VISITED, timeout_s=None)
        Synthesizer(abstraction, config).run(task.tables, task.demonstration)
        out.append((task, abstraction.tables))
    return out


@pytest.mark.parametrize("value_shadow,head_typing", FLAGS)
def test_kernel_matches_naive_reference(visited, value_shadow, head_typing):
    judged = 0
    for task, tables in visited:
        env, demo = task.env, task.demonstration
        masks = DemoMasks(demo, env, value_shadow, head_typing)
        stats = EngineStats()
        for table in tables:
            expected = naive_abstract_consistent(table, demo, env,
                                                 value_shadow, head_typing)
            assert abstract_consistent(table, demo, env, value_shadow,
                                       head_typing, masks, stats) \
                == expected, task.name
            judged += 1
        assert stats.def3_checks == len(tables)
    assert judged > 10_000


def _permuted(demo: Demonstration, rows, cols) -> Demonstration:
    return Demonstration(tuple(tuple(demo.cells[i][j] for j in cols)
                               for i in rows))


@pytest.mark.parametrize("value_shadow,head_typing", FLAGS)
def test_verdicts_invariant_under_demo_permutations(visited, value_shadow,
                                                     head_typing):
    """Metamorphic: permuting demo rows, or demo columns, leaves every
    verdict unchanged (the embedding is injective in both dimensions)."""
    stats = EngineStats()
    for task, tables in visited[::2]:
        env, demo = task.env, task.demonstration
        rows, cols = list(range(demo.n_rows)), list(range(demo.n_cols))
        variants = [_permuted(demo, rows[::-1], cols),
                    _permuted(demo, rows, cols[::-1]),
                    _permuted(demo, rows[1:] + rows[:1], cols[1:] + cols[:1])]
        masks = [DemoMasks(d, env, value_shadow, head_typing)
                 for d in [demo] + variants]
        for table in tables:
            verdicts = {abstract_consistent(table, m.demo, env, value_shadow,
                                            head_typing, m, stats)
                        for m in masks}
            assert len(verdicts) == 1, task.name


def test_direct_call_builds_fresh_state(visited):
    """Without a memoized state, ``abstract_consistent`` judges afresh."""
    task, tables = visited[0]
    masks = DemoMasks(task.demonstration, task.env)
    for table in tables[:50]:
        assert abstract_consistent(table, task.demonstration, task.env) \
            == abstract_consistent(table, task.demonstration, task.env,
                                   masks=masks)


def test_def3_work_counters_are_deterministic():
    """The Definition-3 counters count work, not time: two cold runs of
    one task report identical values (and exercise every counter)."""
    task = next(t for t in all_tasks() if t.name.startswith("fe22"))
    config = task.config.replace(max_visited=MAX_VISITED, timeout_s=None)
    runs = [Synthesizer("provenance", config).run(
        task.tables, task.demonstration).engine_stats for _ in range(2)]
    names = ("def3_checks", "def3_col_pruned", "def3_mask_evals",
             "def3_mask_hits")
    first, second = ({n: getattr(s, n) for n in names} for s in runs)
    assert first == second
    assert all(first.values()), first
