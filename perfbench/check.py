"""Output checks, run after the timed region.

Every solved target is replayed next to its task's ground truth on stdlib
SQLite through :mod:`repro.oracle`, and the two database result sets are
compared here — not by the engine under test, and not by the program's own
equivalence judgement.  Equivalence is the one the experiment protocol
uses (§5.2): the ground truth's columns embed injectively into the
target's so that the row bags coincide.

A digest of each operation's search counters (visited, pruned,
concrete_checked, solved, rank) makes a change of search order visible
even when every output still checks.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter


def _key(value):
    from repro.table.values import canonical

    return canonical(value)


def rows_equivalent(reference: list[tuple], candidate: list[tuple]) -> bool:
    """Injective column embedding of ``reference`` into ``candidate``
    under which the two row bags are equal."""
    if len(reference) != len(candidate):
        return False
    if not reference:
        return True
    ref_cols = [Counter(_key(row[j]) for row in reference)
                for j in range(len(reference[0]))]
    cand_cols = [Counter(_key(row[c]) for row in candidate)
                 for c in range(len(candidate[0]))]
    options = [[c for c, col in enumerate(cand_cols) if col == ref_col]
               for ref_col in ref_cols]
    ref_bag = Counter(tuple(_key(v) for v in row) for row in reference)

    def assign(j: int, chosen: list[int]) -> bool:
        if j == len(options):
            return ref_bag == Counter(tuple(_key(row[c]) for c in chosen)
                                      for row in candidate)
        return any(assign(j + 1, chosen + [c])
                   for c in options[j] if c not in chosen)

    return assign(0, [])


class SqliteReplay:
    """One loaded SQLite database per task env, reused across requests."""

    def __init__(self) -> None:
        self._oracles: dict[str, object] = {}

    def mismatch(self, task, query) -> str | None:
        """Why ``query`` and ``task.ground_truth`` disagree on SQLite, or
        ``None`` when their results are equivalent."""
        from repro.errors import ReproError
        from repro.oracle import Oracle

        try:
            oracle = self._oracles.get(task.name)
            if oracle is None:
                oracle = self._oracles[task.name] = Oracle(task.env, "sqlite")
            expected = oracle.execute(task.ground_truth)
            got = oracle.execute(query)
        except ReproError as err:
            return f"{task.name}: sqlite replay failed: {err}"
        if not rows_equivalent(expected, got):
            return (f"{task.name}: target and ground truth differ on "
                    f"sqlite ({len(got)} vs {len(expected)} rows)")
        return None

    def close(self) -> None:
        for oracle in self._oracles.values():
            oracle.close()
        self._oracles.clear()


def digest(records: list[dict]) -> str:
    """Order-free digest of per-operation search counters."""
    fields = ("task", "visited", "pruned", "concrete_checked", "solved",
              "rank")
    rows = sorted(json.dumps([r[f] for f in fields]) for r in records)
    return hashlib.blake2b("\n".join(rows).encode(),
                           digest_size=8).hexdigest()
