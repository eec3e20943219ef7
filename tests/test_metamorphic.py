"""Metamorphic invariant: column names are labels, not search inputs.

Renaming every input column — with primary keys and foreign-key
references mapped through the same renaming — must leave the search
untouched: the ranked queries (compared by ``repr``, since queries
address columns by position) and every deterministic ``SearchStats``
counter stay identical, on every registry task.

The renaming is one injective map over column *names*, applied in every
table alike, so the same-name join fallback used by tasks without key
metadata still pairs the same columns.  It also reverses the names'
sort order, so a search that ordered anything by column name would show
up here.
"""

import pytest

from repro.benchmarks import all_tasks
from repro.synthesis import Synthesizer
from repro.table.schema import ForeignKey, Schema
from repro.table.table import Table

#: Small enough to sweep all 80 tasks in seconds, large enough to cross
#: several skeletons (and their joins) on every task.
VISITED_BUDGET = 200

#: SearchStats fields that are deterministic under a visited budget.
DETERMINISTIC_FIELDS = ("visited", "pruned", "expanded", "concrete_checked",
                        "consistent_found", "timed_out", "skeletons",
                        "max_skeleton_size")

TASKS = all_tasks()


def rename(column: str) -> str:
    """Injective, and reverses the lexicographic order of the names."""
    return "c_" + "".join(chr(0x10FFFF - ord(ch)) for ch in column)


def renamed_table(table: Table) -> Table:
    schema = table.schema
    mapped = Schema(
        tuple(rename(c) for c in schema.columns), schema.types,
        primary_key=tuple(rename(c) for c in schema.primary_key),
        foreign_keys=tuple(ForeignKey(rename(fk.column), fk.ref_table,
                                      rename(fk.ref_column))
                           for fk in schema.foreign_keys))
    return Table(table.name, mapped, table.rows)


def _search(tables, task):
    config = task.config.replace(timeout_s=None, max_visited=VISITED_BUDGET)
    return Synthesizer("provenance", config).run(tables, task.demonstration)


def test_renaming_changes_every_name_and_keeps_key_links():
    task = next(t for t in TASKS
                if any(t_.schema.foreign_keys for t_ in t.tables))
    for original, renamed in zip(task.tables,
                                 map(renamed_table, task.tables)):
        assert not set(original.columns) & set(renamed.columns)
        for fk in renamed.schema.foreign_keys:
            assert fk.column in renamed.columns
            target = next(t for t in task.tables if t.name == fk.ref_table)
            assert fk.ref_column in renamed_table(target).columns


@pytest.mark.parametrize("task", TASKS, ids=[t.name for t in TASKS])
def test_renaming_columns_leaves_search_identical(task):
    original = _search(task.tables, task)
    renamed = _search(tuple(renamed_table(t) for t in task.tables), task)
    assert [repr(q) for q in renamed.queries] == \
        [repr(q) for q in original.queries]
    for field in DETERMINISTIC_FIELDS:
        assert getattr(renamed.stats, field) == \
            getattr(original.stats, field), field
