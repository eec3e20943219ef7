"""Abstract tables: column-major grids of over-approximated provenance sets.

Each abstract cell carries ``refs`` — a set of input-cell references
over-approximating every input value that can flow into this position under
*any* instantiation of the partial query (the paper's ``T◦[i, j]``) — and an
optional concrete shadow value (``known`` + ``value``).  Exact values survive
operators that only move rows around, and they let the analyzer apply the
*strong* tier (grouping needs concrete key values: ``extractGroups``).

Tables are stored by column.  Operators that pass a column through share
the :class:`AbstractColumn` object, which computes its derived data —
ref-union, joined head, distinct cells with their row bitmasks — once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.provenance.expr import CellRef
from repro.table.values import Value

EMPTY_REFS: frozenset[CellRef] = frozenset()


#: What kind of term a cell can hold under the tracking semantics:
#: ``ref`` — raw input references (and group{} collapses of them);
#: ``aggregate`` / ``ranker`` / ``arithmetic`` — terms headed by a function
#: of that registry kind; ``window`` — an uninstantiated partition output
#: (either an aggregate or a ranker); ``any`` — no information.
HEAD_REF = "ref"
HEAD_AGGREGATE = "aggregate"
HEAD_RANKER = "ranker"
HEAD_ARITHMETIC = "arithmetic"
HEAD_WINDOW = "window"
HEAD_ANY = "any"


def head_matches(demo_kind: str, host_head: str) -> bool:
    """Can a cell with producer ``host_head`` generalize a demo cell whose
    outermost term has ``demo_kind``?"""
    if host_head == HEAD_ANY:
        return True
    if host_head == HEAD_WINDOW:
        return demo_kind in (HEAD_AGGREGATE, HEAD_RANKER)
    return demo_kind == host_head


@dataclass(frozen=True, eq=False)
class AbstractCell:
    """One cell of an abstract table.

    Equality and hashing include the value's type: ``True`` and ``1`` are
    different shadows (``value_eq(True, 1)`` is false).
    """

    refs: frozenset[CellRef]
    value: Value = None
    known: bool = False
    head: str = HEAD_ANY

    def key(self) -> tuple:
        """Refs, head and typed value: what equality and grouping use."""
        return (self.refs, self.head, self.known, self.value.__class__,
                self.value)

    def __eq__(self, other) -> bool:
        return other.__class__ is AbstractCell and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    @staticmethod
    def of_ref(ref: CellRef, value: Value) -> "AbstractCell":
        return AbstractCell(frozenset((ref,)), value, True, HEAD_REF)

    @staticmethod
    def unknown(refs: frozenset[CellRef],
                head: str = HEAD_ANY) -> "AbstractCell":
        return AbstractCell(refs, None, False, head)


class AbstractColumn:
    """One column of an abstract table.  Columns are immutable and shared
    by reference between tables, so each derived field below is computed
    at most once per column object."""

    def __init__(self, cells: tuple[AbstractCell, ...]) -> None:
        self.cells = cells

    @staticmethod
    def repeat(cell: AbstractCell, n: int) -> "AbstractColumn":
        """``n`` copies of one cell (the weak and medium group rows)."""
        column = AbstractColumn((cell,) * n)
        column.__dict__.update(refs=cell.refs, head=cell.head,
                               known=cell.known,
                               distinct=((cell, (1 << n) - 1),))
        return column

    @cached_property
    def refs(self) -> frozenset[CellRef]:
        """Union of the cells' refs."""
        return EMPTY_REFS.union(*[c.refs for c in self.cells])

    @cached_property
    def head(self) -> str:
        """The cells' common head; ``any`` when they disagree."""
        heads = {c.head for c in self.cells}
        return heads.pop() if len(heads) == 1 else HEAD_ANY

    @cached_property
    def known(self) -> bool:
        """True when every cell has a known value."""
        return all(c.known for c in self.cells)

    @cached_property
    def distinct(self) -> tuple[tuple[AbstractCell, int], ...]:
        """Distinct cells (by :meth:`AbstractCell.key`), each with the
        bitmask of the rows holding it."""
        index: dict[tuple, list] = {}
        for r, cell in enumerate(self.cells):
            key = cell.key()
            slot = index.get(key)
            if slot is None:
                index[key] = [cell, 1 << r]
            else:
                slot[1] |= 1 << r
        return tuple(map(tuple, index.values()))

    @cached_property
    def _hash(self) -> int:
        return hash(self.cells)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return other.__class__ is AbstractColumn and (
            self is other or self.cells == other.cells)

    def __reduce__(self):
        # Derived data, the hash included, is process-local: rebuild bare.
        return AbstractColumn, (self.cells,)


@dataclass(frozen=True)
class AbstractTable:
    """An abstract output ``T◦``: ``n_rows`` rows stored as columns (a
    table without rows has no columns).  ``rows_exact`` is False once the
    row set is only a superset of every instantiation's rows (past an
    uninstantiated filter/join predicate); aggregate shadow values need
    exact row sets."""

    columns: tuple[AbstractColumn, ...]
    n_rows: int
    rows_exact: bool = True

    def __post_init__(self) -> None:
        if not self.n_rows:
            object.__setattr__(self, "columns", ())

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def cell(self, i: int, j: int) -> AbstractCell:
        return self.columns[j].cells[i]

    def column(self, j: int) -> list[AbstractCell]:
        return list(self.columns[j].cells)

    def column_known(self, cols: tuple[int, ...]) -> bool:
        """True when every cell of every listed column has a known value."""
        return all(self.columns[c].known for c in cols)

    def all_refs(self) -> frozenset[CellRef]:
        return EMPTY_REFS.union(*[c.refs for c in self.columns])

    def row(self, i: int) -> tuple[AbstractCell, ...]:
        return tuple(c.cells[i] for c in self.columns)
