"""Abstract data provenance — the paper's core abstraction (Fig. 11).

Given a partial query ``q`` and inputs ``T̄``, the analyzer returns an
abstract table ``T◦ = [[q(T̄)]]◦`` whose every cell over-approximates the set
of input cells that can flow into that position under *any* instantiation of
``q`` (Property 1).  Precision climbs a ladder as parameters are filled:

* **weak** — no parameters known: a new aggregate/arithmetic column may draw
  from every cell (of the row, for row-local arithmetic; of the table, for
  grouping operators);
* **medium** — grouping/partition keys known but key *values* not yet
  concrete: the new column may draw from all rows but only non-key columns;
* **strong** — key values concrete: ``extractGroups`` determines the actual
  partition, and each new cell draws only from its own group's rows.

Two sound refinements beyond the figure (both toggleable for ablation):
*target-column refinement* — once the aggregation column ``c_t`` is set,
the new column draws only from ``c_t``; *value shadows* — exact cell values
are propagated where possible, which makes the strong tier applicable above
partially-formed operators.  Concrete subqueries are evaluated under the
tracking semantics and lifted, as §4 prescribes.

All memoization lives in :class:`ProvenanceAnalyzer` and
:class:`ProvenanceAbstraction` *instances* — no module-global evaluation
state, so independent synthesis sessions never share or clobber results.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.abstraction.base import Abstraction
from repro.abstraction.cells import (
    EMPTY_REFS,
    HEAD_AGGREGATE,
    HEAD_ARITHMETIC,
    HEAD_REF,
    HEAD_WINDOW,
    AbstractCell,
    AbstractColumn,
    AbstractTable,
)
from repro.abstraction.consistency import DemoMasks, abstract_consistent
from repro.engine.cache import BoundedCache
from repro.errors import EvaluationError
from repro.lang import ast
from repro.lang.functions import analytic_spec, apply_function, function_spec
from repro.lang.holes import Hole, is_concrete
from repro.provenance.demo import Demonstration
from repro.provenance.expr import FuncApp, GroupSet
from repro.provenance.refs import refs_of
from repro.provenance.incremental import MAX_DEMO_STATES
from repro.semantics.groups import extract_groups, group_index_map

DEFAULT_EVAL_CACHE = 100_000
DEFAULT_HELPER_CACHE = 50_000


def _expr_head(expr) -> str:
    """Producer kind of a tracked term (group{} collapses are transparent —
    the ≺ judgment descends into any member)."""
    if isinstance(expr, GroupSet):
        return _expr_head(expr.members[0])
    if isinstance(expr, FuncApp):
        return function_spec(expr.func).kind
    return HEAD_REF


def _analytic_head(func_name: str | None) -> str:
    """Head of a partition output column for a (possibly unknown) α′."""
    if func_name is None:
        return HEAD_WINDOW
    return function_spec(analytic_spec(func_name).term_name).kind


def _pool_refs(columns, pool: tuple[int, ...]) -> frozenset:
    """Union of the ref-unions of the ``pool`` columns."""
    return EMPTY_REFS.union(*[columns[c].refs for c in pool])


def _with_column(child: AbstractTable, cells) -> AbstractTable:
    """``child`` plus one new column (its own columns shared)."""
    column = cells if isinstance(cells, AbstractColumn) \
        else AbstractColumn(tuple(cells))
    return AbstractTable(child.columns + (column,), child.n_rows,
                         child.rows_exact)


class ProvenanceAnalyzer:
    """``[[q(T̄)]]◦`` with all memoization owned by this instance.

    Concrete subqueries are evaluated through ``engine`` (tracked tables are
    lifted to abstract cells), so the analyzer reuses the synthesis session's
    subtree caches.  The grouping caches key on the key and pool column
    objects (each hashed once), never on whole tables.
    """

    def __init__(self, engine=None,
                 eval_cache_size: int | None = DEFAULT_EVAL_CACHE,
                 helper_cache_size: int | None = DEFAULT_HELPER_CACHE) -> None:
        if engine is None:
            from repro.engine.row import RowEngine
            engine = RowEngine()
        self.engine = engine
        self._tables: BoundedCache = BoundedCache(eval_cache_size)
        self._helpers: BoundedCache = BoundedCache(helper_cache_size)

    def clear(self) -> None:
        """Drop memoized abstract results (between experiment runs)."""
        self._tables.clear()
        self._helpers.clear()

    # ---------------------------------------------------------------- entry
    def abstract_eval(self, query: ast.Query, env: ast.Env,
                      target_refinement: bool = True) -> AbstractTable:
        """``[[q(T̄)]]◦`` for a (possibly partial) query."""
        key = (query, env, target_refinement)
        hit = self._tables.get(key)
        if hit is not None:
            return hit
        table = self._eval(query, env, target_refinement)
        self._tables[key] = table
        return table

    def _eval(self, query: ast.Query, env: ast.Env,
              refine: bool) -> AbstractTable:
        if is_concrete(query):
            return self._lift_tracked(query, env)

        if isinstance(query, ast.Filter):
            child = self.abstract_eval(query.child, env, refine)
            # An unknown predicate keeps at most these rows: same cells, row
            # set no longer exact.
            return AbstractTable(child.columns, child.n_rows,
                                 rows_exact=False)

        if isinstance(query, ast.Join):
            return self._abstract_join(query, env, refine, outer=False)

        if isinstance(query, ast.LeftJoin):
            return self._abstract_join(query, env, refine, outer=True)

        if isinstance(query, ast.Sort):
            # Sorting permutes rows; the abstraction is order-insensitive, so
            # the child's abstract table is already sound.
            return self.abstract_eval(query.child, env, refine)

        child = self.abstract_eval(query.child, env, refine)

        if isinstance(query, ast.Group):
            return self._abstract_group(query, child, refine)

        if child.n_rows == 0:   # projecting or extending no rows
            return AbstractTable((), 0, child.rows_exact)

        if isinstance(query, ast.Proj):
            if isinstance(query.cols, Hole):
                return child
            return AbstractTable(tuple(child.columns[c] for c in query.cols),
                                 child.n_rows, child.rows_exact)

        if isinstance(query, ast.Partition):
            return self._abstract_partition(query, child, refine)

        if isinstance(query, ast.Arithmetic):
            return self._abstract_arithmetic(query, child)

        raise EvaluationError(f"no abstract rule for {type(query).__name__}")

    def _lift_tracked(self, query: ast.Query, env: ast.Env) -> AbstractTable:
        """A concrete subquery, evaluated under the tracking semantics (§4:
        "to achieve stronger analysis") and lifted to abstract cells."""
        tracked = self.engine.evaluate_tracking(query, env)
        return AbstractTable(tuple(
            AbstractColumn(tuple(
                AbstractCell(refs_of(expr), value, True, _expr_head(expr))
                for expr, value in zip(exprs, values)))
            for exprs, values in zip(zip(*tracked.exprs),
                                     zip(*tracked.values))), tracked.n_rows)

    # ------------------------------------------------------- cached helpers
    def _memo(self, key: tuple, build):
        """``build()``, memoized under ``key``: a tag, then column objects
        (each hashed once) and ints, never whole tables."""
        hit = self._helpers.get(key)
        if hit is None:
            hit = self._helpers[key] = build()
        return hit

    def repeat(self, refs: frozenset, head: str, n: int) -> AbstractColumn:
        """The column of ``n`` unknown cells with these refs and head,
        interned: weak and medium rows over equal child columns share one
        column object, so Definition 3 judges it once."""
        return self._memo(("repeat", refs, head, n), lambda: (
            AbstractColumn.repeat(AbstractCell.unknown(refs, head), n)))

    def row_unions(self, child: AbstractTable) -> AbstractColumn:
        """The weak arithmetic column: per row, an unknown cell over the
        row's refs.  Rows of the same cell objects share one new cell."""
        def build():
            made: dict[tuple[int, ...], AbstractCell] = {}
            columns = [c.cells for c in child.columns]
            for row in zip(*columns) if columns else [()] * child.n_rows:
                ids = tuple(map(id, row))
                if ids not in made:
                    made[ids] = AbstractCell.unknown(
                        EMPTY_REFS.union(*[c.refs for c in row]),
                        HEAD_ARITHMETIC)
                yield made[ids]
        return self._memo(("rows", child.n_rows, child.columns),
                          lambda: AbstractColumn(tuple(build())))

    def grouping(self, child: AbstractTable,
                 keys: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """``extractGroups`` over concrete key shadows, cached per key
        columns.

        Every (agg_col, agg_func) sibling in the search shares this grouping
        — caching it is the difference between linear and quadratic
        enumeration cost around grouping operators.
        """
        columns = tuple(child.columns[k] for k in keys)
        return self._memo(("grouping", child.n_rows, columns), lambda: tuple(
            tuple(g) for g in extract_groups(
                [[c.cells[i].value for c in columns]
                 for i in range(child.n_rows)])))

    def group_key_columns(self, child: AbstractTable, keys: tuple[int, ...]
                          ) -> tuple[AbstractColumn, ...]:
        """The strong group's key columns, shared by every aggregation
        sibling over the same key columns."""
        columns = tuple(child.columns[k] for k in keys)

        def build():
            groups = self.grouping(child, keys)
            return tuple(AbstractColumn(tuple(
                AbstractCell(EMPTY_REFS.union(*[col.cells[i].refs
                                                for i in g]),
                             col.cells[g[0]].value, True, col.head)
                for g in groups)) for col in columns)
        return self._memo(("key_columns", child.n_rows, columns), build)

    def group_pool_refs(self, child: AbstractTable, keys: tuple[int, ...],
                        agg_pool: tuple[int, ...]) -> tuple[frozenset, ...]:
        """Per-group union of refs over the aggregation candidate columns."""
        columns = tuple(child.columns[c] for c in keys + agg_pool)

        def build():
            pool = columns[len(keys):]
            return tuple(EMPTY_REFS.union(*[col.cells[i].refs for i in g
                                            for col in pool])
                         for g in self.grouping(child, keys))
        return self._memo(("pool", child.n_rows, len(keys), columns), build)

    # ------------------------------------------------------- operator rules
    def _abstract_join(self, query, env: ast.Env, refine: bool,
                       outer: bool) -> AbstractTable:
        left = self.abstract_eval(query.left, env, refine)
        right = self.abstract_eval(query.right, env, refine)
        pred = query.pred
        check = not isinstance(pred, Hole) and pred is not None and not outer
        pairs = []
        right_rows = [right.row(i) for i in range(right.n_rows)]
        for li in range(left.n_rows):
            lrow = left.row(li)
            for ri, rrow in enumerate(right_rows):
                if check and all(c.known for c in lrow + rrow):
                    # Concrete inner-join predicate over known values:
                    # apply it.
                    if not pred.evaluate([c.value for c in lrow + rrow]):
                        continue
                pairs.append((li, ri))
        # An outer join also keeps every left row, padded on the right.
        kept = [li for li, _ in pairs] + \
            (list(range(left.n_rows)) if outer else [])
        columns = [AbstractColumn(tuple(col.cells[li] for li in kept))
                   for col in left.columns]
        pad = AbstractCell(EMPTY_REFS, None, True, HEAD_REF)
        for col in right.columns:
            columns.append(AbstractColumn(
                tuple(col.cells[ri] for _, ri in pairs)
                + (pad,) * (len(kept) - len(pairs))))
        exact = False  # the surviving row set depends on the predicate
        if pred is None and not outer:
            exact = left.rows_exact and right.rows_exact
        return AbstractTable(tuple(columns), len(kept), rows_exact=exact)

    def _abstract_group(self, query: ast.Group, child: AbstractTable,
                        refine: bool) -> AbstractTable:
        n, m = child.n_rows, child.n_cols
        agg_col = None if isinstance(query.agg_col, Hole) else query.agg_col
        agg_func = None if isinstance(query.agg_func, Hole) else query.agg_func

        if isinstance(query.keys, Hole):
            # Weak: grouping unknown — every original column is a candidate
            # key whose cells may collapse any subset of rows; the new column
            # may draw from anywhere.
            n_out = max(n, 1)
            columns = tuple(self.repeat(col.refs, col.head, n_out)
                            for col in child.columns)
            return AbstractTable(columns + (self.repeat(
                child.all_refs(), HEAD_AGGREGATE, n_out),), n_out,
                rows_exact=False)

        if n == 0:   # no rows, no groups
            return AbstractTable((), 0, child.rows_exact)

        keys = query.keys
        agg_pool = (agg_col,) if (refine and agg_col is not None) \
            else tuple(c for c in range(m) if c not in keys)

        if not child.column_known(keys):
            # Medium: keys known, key values not yet concrete.
            columns = tuple(self.repeat(child.columns[k].refs,
                                        child.columns[k].head, n)
                            for k in keys)
            return AbstractTable(columns + (self.repeat(
                _pool_refs(child.columns, agg_pool), HEAD_AGGREGATE, n),), n,
                rows_exact=False)

        # Strong: extractGroups over the concrete key values.
        groups = self.grouping(child, keys)
        pool_refs = self.group_pool_refs(child, keys, agg_pool)
        new_cells = tuple(_shadow(child, g, agg_col, agg_func, refs)
                          for g, refs in zip(groups, pool_refs))
        return AbstractTable(self.group_key_columns(child, keys)
                             + (AbstractColumn(new_cells),),
                             len(groups), rows_exact=child.rows_exact)

    def _abstract_partition(self, query: ast.Partition, child: AbstractTable,
                            refine: bool) -> AbstractTable:
        n, m = child.n_rows, child.n_cols
        agg_col = None if isinstance(query.agg_col, Hole) else query.agg_col
        agg_func = None if isinstance(query.agg_func, Hole) else query.agg_func

        new_head = _analytic_head(agg_func)

        if isinstance(query.keys, Hole):
            # Weak: any row may share a partition with any other.
            return _with_column(child, self.repeat(child.all_refs(),
                                                   new_head, n))

        keys = query.keys
        agg_pool = (agg_col,) if (refine and agg_col is not None) \
            else tuple(c for c in range(m) if c not in keys)

        if not child.column_known(keys):
            # Medium: keys known, partition membership unknown.
            return _with_column(child, self.repeat(
                _pool_refs(child.columns, agg_pool), new_head, n))

        # Strong: partition membership is determined by the concrete key
        # values.
        groups = self.grouping(child, keys)
        pool_refs = self.group_pool_refs(child, keys, agg_pool)
        row_group = group_index_map(groups)
        return _with_column(child, (
            _shadow(child, groups[row_group[i]], agg_col, agg_func,
                    pool_refs[row_group[i]], i)
            for i in range(n)))

    def _abstract_arithmetic(self, query: ast.Arithmetic,
                             child: AbstractTable) -> AbstractTable:
        func = None if isinstance(query.func, Hole) else query.func

        if isinstance(query.cols, Hole):
            # Weak: the new value may use any cell of its own row.
            return _with_column(child, self.row_unions(child))

        cells = []
        for i in range(child.n_rows):
            row = [child.columns[c].cells[i] for c in query.cols]
            refs = EMPTY_REFS.union(*[c.refs for c in row])
            if func is not None and all(c.known for c in row):
                value = apply_function(func, [c.value for c in row])
                cells.append(AbstractCell(refs, value, True, HEAD_ARITHMETIC))
            else:
                cells.append(AbstractCell.unknown(refs, HEAD_ARITHMETIC))
        return _with_column(child, cells)


def _shadow(child: AbstractTable, group_rows, agg_col: int | None,
            agg_func: str | None, refs: frozenset,
            row: int | None = None) -> AbstractCell:
    """The new cell of a group (``row`` None) or of partition row ``row``,
    with its exact value when everything needed is known."""
    head = HEAD_AGGREGATE if row is None else _analytic_head(agg_func)
    unknown = AbstractCell.unknown(refs, head)
    if agg_col is None or agg_func is None or not child.rows_exact:
        return unknown
    spec = None if row is None else analytic_spec(agg_func)
    if spec is not None and spec.order_dependent:
        # Row order below may differ from the eventual concrete order
        # (uninstantiated sorts pass through unchanged), so prefix-based
        # functions get no shadow value.
        return unknown
    column = child.columns[agg_col].cells
    if not all(column[i].known for i in group_rows):
        return unknown
    values = [column[i].value for i in group_rows]
    value = apply_function(agg_func, values) if spec is None else \
        apply_function(spec.term_name,
                       spec.row_args(values, group_rows.index(row)))
    return AbstractCell(refs, value, True, head)


def abstract_eval(query: ast.Query, env: ast.Env,
                  target_refinement: bool = True,
                  engine=None) -> AbstractTable:
    """``[[q(T̄)]]◦`` via a transient analyzer (direct API / tests).

    Synthesis sessions should use a persistent :class:`ProvenanceAnalyzer`
    (as :class:`ProvenanceAbstraction` does) so results are memoized across
    calls.
    """
    return ProvenanceAnalyzer(engine).abstract_eval(query, env,
                                                    target_refinement)


class ProvenanceAbstraction(Abstraction):
    """Sickle's pruning: abstract provenance + Definition 3 consistency."""

    name = "provenance"

    #: Retained analyzers: the pinned session analyzer plus up to three
    #: override analyzers (per-run backend overrides must not accumulate).
    MAX_ANALYZERS = 4

    def __init__(self, target_refinement: bool = True,
                 value_shadow: bool = True, head_typing: bool = True) -> None:
        self.target_refinement = target_refinement
        self.value_shadow = value_shadow
        self.head_typing = head_typing
        self._analyzer: ProvenanceAnalyzer | None = None
        # One analyzer per bound engine, so a per-run backend override
        # keeps the session's memoization: the first-bound (session)
        # analyzer is pinned; overrides are LRU-evicted past MAX_ANALYZERS.
        self._analyzers: OrderedDict[int, ProvenanceAnalyzer] = OrderedDict()
        self._session_key: int | None = None
        # Definition-3 state per (demo, env), shared by every analyzer.
        self._masks: dict[tuple[int, int], DemoMasks] = {}

    def bind_engine(self, engine) -> None:
        super().bind_engine(engine)
        key = id(engine)
        analyzer = self._analyzers.get(key)
        if analyzer is not None and analyzer.engine is engine:
            # Rebind of a retained engine: refresh its LRU recency.
            self._analyzers.move_to_end(key)
        else:
            # New engine, or a stale entry under a recycled id: replace it.
            analyzer = ProvenanceAnalyzer(engine)
            self._analyzers[key] = analyzer
            self._analyzers.move_to_end(key)
            if self._session_key is None:
                self._session_key = key
            while len(self._analyzers) > self.MAX_ANALYZERS:
                for candidate in self._analyzers:   # LRU first
                    if candidate != self._session_key:
                        del self._analyzers[candidate]
                        break
        self._analyzer = analyzer

    @property
    def analyzer(self) -> ProvenanceAnalyzer:
        if self._analyzer is None:
            self.bind_engine(self._engine())
        return self._analyzer

    def masks(self, demo: Demonstration, env: ast.Env) -> DemoMasks:
        """The Definition-3 state for ``(demo, env)`` (pinning both, so
        their ids stay unique); past ``MAX_DEMO_STATES`` all are dropped."""
        key = (id(demo), id(env))
        state = self._masks.get(key)
        if state is not None and state.demo is demo and state.env is env:
            return state
        if len(self._masks) >= MAX_DEMO_STATES:
            self._masks.clear()
        state = DemoMasks(demo, env, self.value_shadow, self.head_typing)
        self._masks[key] = state
        return state

    def feasible(self, query: ast.Query, env: ast.Env,
                 demo: Demonstration) -> bool:
        # Partial queries face Definition 3 here; once fully instantiated
        # they face Definition 1 in the engine-owned checker
        # (``engine.consistency``).  Both run the column-mask kernel of
        # :class:`~repro.provenance.incremental.ColumnMasks`.
        analyzer = self.analyzer
        table = analyzer.abstract_eval(query, env, self.target_refinement)
        return abstract_consistent(table, demo, env,
                                   value_shadow=self.value_shadow,
                                   head_typing=self.head_typing,
                                   masks=self.masks(demo, env),
                                   stats=analyzer.engine.stats)

    def reset(self) -> None:
        super().reset()
        for analyzer in self._analyzers.values():
            analyzer.clear()
        if self._analyzer is not None:
            self._analyzer.clear()
        self._masks.clear()
