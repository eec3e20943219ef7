"""Abstract provenance consistency ``E ◁ T◦`` (Definition 3).

The demonstration embeds into the abstract table when injective row and
column assignments exist under which every demonstration cell's input-cell
references are a subset of its abstract cell's over-approximated
provenance: ``ref(E[i,j]) ⊆ T◦[r_i, c_j]``.  By Property 2, failure proves
that *no* instantiation of the partial query satisfies the demonstration —
the pruning foundation.

The check runs on the column-mask kernel shared with Definition 1
(:class:`~repro.provenance.incremental.ColumnMasks`).  :class:`DemoMasks`
is the per-(demonstration, environment) state: the demo cells' refs, heads
and values, and the mask memo keyed by abstract column identity (each
distinct cell of a column judged once).

Two sound, ablatable refinements sharpen the cell judgment:

* *value shadow* — for a complete demo cell (no ♦), ``e ≺ e★`` forces equal
  values, so an abstract cell with an exact shadow value that differs from
  the demonstrated value is refuted.  This rejects a wrong aggregation
  *function*, which leaves provenance sets untouched, without enumerating
  its subtree;
* *head typing* — each operator family produces one kind of term
  (arithmetic functions only from ``arithmetic``, rank terms only from
  ``partition``, ...) and ``e ≺ e★`` preserves the outermost function, so a
  demo cell only embeds into a cell whose producer can build its head.
  This stops uninstantiated upper operators from shielding wrong lower
  parameters.
"""

from __future__ import annotations

from repro.abstraction.cells import AbstractTable, head_matches
from repro.engine.base import EngineStats
from repro.errors import ExpressionError
from repro.lang.ast import Env
from repro.lang.functions import function_spec
from repro.provenance.demo import Demonstration
from repro.provenance.expr import FuncApp
from repro.provenance.incremental import DEFAULT_MATCH_CACHE, ColumnMasks
from repro.provenance.refs import refs_of
from repro.table.values import value_eq

_NO_VALUE = object()


def _demo_value(expr, env: Env | None) -> object:
    """The demonstrated value of a cell; ``_NO_VALUE`` when not computable."""
    if env is None:
        return _NO_VALUE
    try:
        return expr.evaluate(env)
    except ExpressionError:
        return _NO_VALUE  # partial expression (♦)


def _demo_head(expr) -> str:
    """Outermost term kind of a demo cell ('ref' for references/constants)."""
    return function_spec(expr.func).kind if isinstance(expr, FuncApp) \
        else "ref"


class DemoMasks(ColumnMasks):
    """Definition-3 state for one (demonstration, environment) pair and
    fixed refinement flags.  It pins both objects, so holders may key
    states by their ids."""

    COUNTERS = ("def3_mask_evals", "def3_mask_hits", "def3_col_pruned")

    def __init__(self, demo: Demonstration, env: Env | None,
                 value_shadow: bool = True, head_typing: bool = True,
                 cache_size: int | None = DEFAULT_MATCH_CACHE) -> None:
        super().__init__(demo.n_rows, demo.n_cols, cache_size)
        self.demo = demo
        self.env = env
        self.head_typing = head_typing
        # Per demo column j, per demo row i: (refs, head, value).
        self.demo_columns = [
            tuple((refs_of(expr), _demo_head(expr),
                   _demo_value(expr, env) if value_shadow else _NO_VALUE)
                  for expr in (row[j] for row in demo.cells))
            for j in range(demo.n_cols)]

    def _distinct(self, column):
        return column.distinct

    def _candidates(self, column) -> list[int]:
        # A demo column whose cells' refs are not all within the column's
        # ref-union cannot embed here, whatever the rows.
        col_refs = column.refs
        return [j for j, demo_col in enumerate(self.demo_columns)
                if all(refs <= col_refs for refs, _, _ in demo_col)]

    def _judge(self, cell, demo_cell) -> bool:
        demo_refs, demo_head, demo_value = demo_cell
        if not demo_refs <= cell.refs:
            return False
        if self.head_typing and not head_matches(demo_head, cell.head):
            return False
        return not cell.known or demo_value is _NO_VALUE \
            or value_eq(cell.value, demo_value)


def abstract_consistent(table: AbstractTable, demo: Demonstration,
                        env: Env | None = None,
                        value_shadow: bool = True,
                        head_typing: bool = True,
                        masks: DemoMasks | None = None,
                        stats: EngineStats | None = None) -> bool:
    """Definition 3 with the value-shadow / head-typing refinements.

    ``masks`` is the memoized state for ``(demo, env)``, built with the
    same flags; without one a fresh state is built (the direct-API and test
    path).  Work counters go to ``stats``.
    """
    if masks is None:
        masks = DemoMasks(demo, env, value_shadow, head_typing)
    if stats is None:
        stats = EngineStats()
    stats.def3_checks += 1
    return masks.embeds(table.columns, table.n_rows, stats)
