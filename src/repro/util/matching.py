"""Bipartite matching used by the table-level consistency checks.

Both the concrete consistency judgment (Definition 1) and the abstract one
(Definition 3) ask for an *injective* assignment of demonstration rows to
output rows (and demonstration columns to output columns).  The tables
involved are tiny — demonstrations have two or three rows and a handful of
columns — so augmenting-path matchers are more than fast enough and keep
the library dependency-free.

The grid-embedding search runs over *bitsets*: per-(demo column, output
column) match state is a tuple of row bitmasks, column assignment
backtracking ANDs those masks incrementally (a branch dies the moment some
demo row has no surviving output row), and the row matching at each leaf is
Kuhn's algorithm over bitmask adjacency (:func:`bitset_match`).  Both
definitions reach :func:`bitset_embedding_exists` through the column-mask
kernel :class:`~repro.provenance.incremental.ColumnMasks`, which memoizes
masks by column identity.  :func:`embedding_exists` builds the masks from a
per-cell callback instead; it serves only the naive Definition-1 reference
(:func:`repro.provenance.consistency.demo_consistent`) and test references.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence


def bipartite_match(n_left: int, n_right: int,
                    edge: Callable[[int, int], bool]) -> list[int] | None:
    """Find a matching that saturates the left side, or ``None``.

    ``edge(i, j)`` reports whether left node ``i`` may be assigned to right
    node ``j``.  Returns ``assign`` with ``assign[i] = j`` for every left
    node, each ``j`` distinct, or ``None`` when no saturating matching
    exists.  Classic Kuhn augmenting-path algorithm, O(V * E).
    """
    if n_left > n_right:
        return None
    match_right: list[int | None] = [None] * n_right

    def try_augment(i: int, seen: list[bool]) -> bool:
        for j in range(n_right):
            if seen[j] or not edge(i, j):
                continue
            seen[j] = True
            if match_right[j] is None or try_augment(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    for i in range(n_left):
        if not try_augment(i, [False] * n_right):
            return None
    assign: list[int] = [-1] * n_left
    for j, i in enumerate(match_right):
        if i is not None:
            assign[i] = j
    return assign


def injective_assignment_exists(n_left: int, n_right: int,
                                edge: Callable[[int, int], bool]) -> bool:
    """True when an injective left-to-right assignment exists."""
    return bipartite_match(n_left, n_right, edge) is not None


def subsequence_match(needles: Sequence, haystack: Sequence,
                      matches: Callable[[object, object], bool]) -> bool:
    """True when ``needles`` embeds into ``haystack`` as a subsequence.

    Greedy scan is *not* sufficient in general because ``matches`` is a
    relation, not equality; we use backtracking (inputs are tiny).
    """

    def go(ni: int, hi: int) -> bool:
        if ni == len(needles):
            return True
        if len(haystack) - hi < len(needles) - ni:
            return False
        for j in range(hi, len(haystack)):
            if matches(needles[ni], haystack[j]) and go(ni + 1, j + 1):
                return True
        return False

    return go(0, 0)


def bitset_match(adjacency: Sequence[int], n_right: int) -> list[int] | None:
    """:func:`bipartite_match` over bitmask adjacency rows.

    ``adjacency[i]`` is the bitmask of right nodes left node ``i`` may be
    assigned to.  Returns ``assign`` with ``assign[i] = j`` for every left
    node (each ``j`` distinct), or ``None`` when no saturating matching
    exists.  Kuhn's augmenting-path algorithm with bit scans in place of
    the per-edge callback loop.
    """
    n_left = len(adjacency)
    if n_left > n_right:
        return None
    match_right: dict[int, int] = {}

    def try_augment(i: int, seen: list[int]) -> bool:
        while True:
            avail = adjacency[i] & ~seen[0]
            if not avail:
                return False
            low = avail & -avail
            seen[0] |= low
            j = low.bit_length() - 1
            owner = match_right.get(j)
            if owner is None or try_augment(owner, seen):
                match_right[j] = i
                return True

    for i in range(n_left):
        if not try_augment(i, [0]):
            return None
    assign = [-1] * n_left
    for j, i in match_right.items():
        assign[i] = j
    return assign


#: One ``options[j]`` entry of :func:`bitset_embedding_exists`: an output
#: column index paired with one row bitmask per demo row.
MaskOption = tuple[int, Sequence[int]]


def bitset_embedding_exists(options: Sequence[Sequence[MaskOption]],
                            n_demo_rows: int, n_rows: int) -> bool:
    """Injective grid embedding from precomputed row bitmasks.

    ``options[j]`` lists the compatible output columns for demo column
    ``j`` as ``(c, masks)`` pairs, where ``masks[i]`` is the bitmask of
    output rows whose cell in column ``c`` can realize demo cell
    ``(i, j)`` (every ``masks[i]`` nonzero — incompatible columns are
    filtered by the caller).  Columns are assigned by backtracking with
    the per-demo-row masks ANDed incrementally, so a partial assignment
    dies the moment some demo row has no surviving output row; each full
    assignment is closed with a bitset row matching.
    """
    if any(not opts for opts in options):
        return False
    n_demo_cols = len(options)

    def assign(j: int, used: int, row_masks: tuple[int, ...]) -> bool:
        if j == n_demo_cols:
            return bitset_match(row_masks, n_rows) is not None
        for c, masks in options[j]:
            bit = 1 << c
            if used & bit:
                continue
            merged = tuple(rm & m for rm, m in zip(row_masks, masks))
            if 0 in merged:
                continue
            if assign(j + 1, used | bit, merged):
                return True
        return False

    full = (1 << n_rows) - 1
    return assign(0, 0, (full,) * n_demo_rows)


def embedding_exists(n_demo_rows: int, n_demo_cols: int,
                     n_rows: int, n_cols: int,
                     cell_ok: Callable[[int, int, int, int], bool]) -> bool:
    """Injective embedding of a demo grid into an output grid.

    Searches for injective assignments of demo columns to output columns and
    demo rows to output rows such that ``cell_ok(i, j, r, c)`` holds for every
    demo cell ``(i, j)`` mapped to output cell ``(r, c)``: the naive form of
    the consistency definitions, kept as a reference.

    The relation is materialized once as per-(demo column, output column)
    row bitmasks — each cell judged at most once — and the search runs
    through :func:`bitset_embedding_exists`.  A column pair is abandoned at
    the first demo row with no matching output row.
    """
    if n_demo_rows > n_rows or n_demo_cols > n_cols:
        return False

    options: list[list[MaskOption]] = []
    for j in range(n_demo_cols):
        opts: list[MaskOption] = []
        for c in range(n_cols):
            masks: list[int] = []
            for i in range(n_demo_rows):
                mask = 0
                for r in range(n_rows):
                    if cell_ok(i, j, r, c):
                        mask |= 1 << r
                if not mask:
                    break
                masks.append(mask)
            else:
                opts.append((c, tuple(masks)))
        if not opts:
            return False
        options.append(opts)

    return bitset_embedding_exists(options, n_demo_rows, n_rows)


def multiset_match(needles: Sequence, haystack: Sequence,
                   matches: Callable[[object, object], bool],
                   exact: bool = False) -> bool:
    """True when each needle matches a *distinct* haystack element.

    With ``exact=True`` the match must be a bijection (same length and every
    haystack element used) — this is the rule for complete commutative
    expressions; without it, the rule for partial (``f♦``) ones.
    """
    if exact and len(needles) != len(haystack):
        return False
    if len(needles) > len(haystack):
        return False
    assign = bipartite_match(
        len(needles), len(haystack),
        lambda i, j: matches(needles[i], haystack[j]))
    return assign is not None
