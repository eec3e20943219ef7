"""Incremental consistency checking, and the kernel both definitions share.

:class:`ColumnMasks` is the column-mask embedding kernel of Definition 1
(``E ≺ [[q(T̄)]]★``) and Definition 3 (``E ◁ T◦``, in
:mod:`repro.abstraction.consistency`).  Per (column, demonstration) it
computes a *mask matrix* — per demo column and demo row, the bitmask of the
rows whose cell can realize that demo cell — judging each distinct cell of
the column once.  Matrices are memoized by column object identity: sibling
candidates share all but one column by reference, so a sibling costs one new
matrix.  A candidate is then refuted at the column stage when some demo
column has no compatible column or no injective column assignment exists,
and only survivors run the bitset row search of
:func:`repro.util.matching.bitset_embedding_exists`.  The two definitions
differ only in the cell judgment.

:class:`ConsistencyChecker` is the engine-owned Definition-1 checker
(PATSQL's quick inference of projected columns against the example,
applied to provenance terms).  :meth:`~ConsistencyChecker.demo_consistent_many`
threads a sibling family through the engine's batched tracking evaluation
and memoizes verdicts; terms are matched in pre-simplified form (tracking
engines emit simplified terms, demo cells are simplified once per state).
Each engine lazily owns one checker (``engine.consistency``), so parallel
workers get their own, and the counters ride in the engine's mergeable
:class:`~repro.engine.base.EngineStats`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.cache import BoundedCache
from repro.engine.tracked_columns import distinct_exprs
from repro.lang import ast
from repro.provenance.consistency import generalizes_simplified
from repro.provenance.demo import Demonstration
from repro.provenance.simplify import simplify
from repro.util.matching import MaskOption, bitset_embedding_exists, bitset_match

DEFAULT_VERDICT_CACHE = 100_000
DEFAULT_MATCH_CACHE = 50_000

#: Retained per-demonstration states; past the cap every state (and every
#: verdict keyed through their pinned demo identities) is dropped together.
MAX_DEMO_STATES = 8


class ColumnMasks:
    """The shared kernel for one demonstration (see the module docstring).

    A mask matrix holds, per demo column, one row bitmask per demo row, or
    ``None`` when some demo row has no matching cell.  Subclasses supply
    ``demo_columns``, the cell judgment :meth:`_judge` and the column's
    distinct cells with row bitmasks :meth:`_distinct`.  ``COUNTERS`` names
    the :class:`~repro.engine.base.EngineStats` fields for a computed mask,
    a memoized mask and a verdict decided at the column stage.
    """

    COUNTERS = ("col_match_evals", "col_match_hits", "consistency_col_pruned")
    demo_columns: list[tuple]

    def __init__(self, n_rows: int, n_cols: int,
                 match_cache_size: int | None) -> None:
        self.n_rows = n_rows
        self.n_cols = n_cols
        # id(column) -> (column, mask matrix); the entry pins the column,
        # so its id cannot be recycled while the entry exists.
        self.matches: BoundedCache = BoundedCache(match_cache_size)

    def _candidates(self, column) -> list[int]:
        """Demo columns the column may realize, before any cell is judged."""
        return list(range(self.n_cols))

    def _compute_masks(self, column) -> tuple[tuple[int, ...] | None, ...]:
        grids = {j: [0] * self.n_rows for j in self._candidates(column)}
        if grids:
            for item, row_bits in self._distinct(column):
                for j, grid in grids.items():
                    for i, demo_cell in enumerate(self.demo_columns[j]):
                        if self._judge(item, demo_cell):
                            grid[i] |= row_bits
        return tuple(None if j not in grids or 0 in grids[j]
                     else tuple(grids[j]) for j in range(self.n_cols))

    def _bump(self, stats, which: int) -> None:
        name = self.COUNTERS[which]
        setattr(stats, name, getattr(stats, name) + 1)

    def column_masks(self, column, stats) -> tuple[tuple[int, ...] | None, ...]:
        """The column's mask matrix against this demonstration."""
        key = id(column)
        entry = self.matches.get(key)
        if entry is not None and entry[0] is column:
            self._bump(stats, 1)
            return entry[1]
        self._bump(stats, 0)
        matrix = self._compute_masks(column)
        self.matches[key] = (column, matrix)
        return matrix

    def embeds(self, columns, n_rows: int, stats) -> bool:
        """Does the demonstration embed into these columns of ``n_rows``
        rows?  The column stage runs first, then the row search."""
        n_cols = len(columns)
        if self.n_rows > n_rows or self.n_cols > n_cols:
            self._bump(stats, 2)
            return False
        matrices = [self.column_masks(col, stats) for col in columns]
        options: list[list[MaskOption]] = []
        col_adj: list[int] = []
        for j in range(self.n_cols):
            opts = [(c, matrices[c][j]) for c in range(n_cols)
                    if matrices[c][j] is not None]
            if not opts:
                self._bump(stats, 2)
                return False
            options.append(opts)
            col_adj.append(sum(1 << c for c, _ in opts))
        if bitset_match(col_adj, n_cols) is None:
            self._bump(stats, 2)
            return False
        return bitset_embedding_exists(options, self.n_rows, n_rows)


class _DemoState(ColumnMasks):
    """Definition-1 masks for one demonstration, pinned by identity."""

    _distinct = staticmethod(distinct_exprs)
    _judge = staticmethod(generalizes_simplified)

    def __init__(self, demo: Demonstration,
                 match_cache_size: int | None) -> None:
        super().__init__(demo.n_rows, demo.n_cols, match_cache_size)
        self.demo = demo
        # Simplified once (a no-op walk for Demonstration.of), by column.
        cells = [[simplify(e) for e in row] for row in demo.cells]
        self.demo_columns = [tuple(row[j] for row in cells)
                             for j in range(demo.n_cols)]


class ConsistencyChecker:
    """Engine-owned incremental ``E ≺ [[q(T̄)]]★`` (Definition 1) checker.

    Obtain through ``engine.consistency`` — never share one checker across
    engines: match matrices cache judgments over *that* engine's column
    objects, and the counters ride in that engine's stats.
    """

    def __init__(self, engine,
                 verdict_cache_size: int | None = DEFAULT_VERDICT_CACHE,
                 match_cache_size: int | None = DEFAULT_MATCH_CACHE,
                 max_demo_states: int = MAX_DEMO_STATES) -> None:
        self.engine = engine
        self._match_cache_size = match_cache_size
        self._max_demo_states = max_demo_states
        self._verdicts: BoundedCache = BoundedCache(verdict_cache_size)
        self._demos: dict[int, _DemoState] = {}

    def clear(self) -> None:
        """Drop verdicts, match matrices and demo states (engine reset)."""
        self._verdicts.clear()
        self._demos.clear()

    def _state(self, demo: Demonstration) -> _DemoState:
        key = id(demo)
        state = self._demos.get(key)
        if state is not None and state.demo is demo:
            return state
        if len(self._demos) >= self._max_demo_states:
            # Verdict keys embed demo identities that the evicted states
            # were pinning — they must go together, or a recycled id could
            # surface another demonstration's verdicts.
            self.clear()
        state = _DemoState(demo, self._match_cache_size)
        self._demos[key] = state
        return state

    # ------------------------------------------------------------- checking
    def demo_consistent(self, query: ast.Query, env: ast.Env,
                        demo: Demonstration) -> bool:
        """Definition 1 for one concrete candidate (cached verdict)."""
        return self.demo_consistent_many((query,), env, demo)[0]

    def demo_consistent_many(self, queries: Sequence[ast.Query],
                             env: ast.Env,
                             demo: Demonstration) -> list[bool]:
        """Batched Definition 1 over a sibling family.

        Verdicts come back in input order.  Tracking evaluation and
        consistency checking share one batched pipeline: cache misses are
        evaluated through the engine's ``tracked_columns_many`` (column
        grids shared by identity across the family) and judged against the
        memoized match state.  A candidate that is ill-typed on the data
        (the engine's ``errors="none"`` exception set) is simply not a
        solution — verdict ``False``, exactly as the enumerator's historical
        per-candidate guard treated it.
        """
        state = self._state(demo)
        stats = self.engine.stats
        demo_key = id(demo)
        verdicts = self._verdicts
        out = [False] * len(queries)
        missing: list[int] = []
        for idx, query in enumerate(queries):
            cached = verdicts.get((query, env, demo_key))
            if cached is not None:
                stats.consistency_hits += 1
                out[idx] = cached[0]
            else:
                missing.append(idx)
        if not missing:
            return out
        grids = self.engine.tracked_columns_many(
            [queries[idx] for idx in missing], env, errors="none")
        for idx, columns in zip(missing, grids):
            stats.consistency_checks += 1
            verdict = columns is not None and state.embeds(
                columns, len(columns[0]) if columns else 0, stats)
            # Wrapped so a cached False is distinguishable from a miss.
            verdicts[(queries[idx], env, demo_key)] = (verdict,)
            out[idx] = verdict
        return out
