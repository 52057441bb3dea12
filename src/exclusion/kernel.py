"""Numpy scan primitives for the bounded sweep.

Teams are packed into flat numpy arrays: one row of `cells` per team,
holding max_rows * n_vars uint8 values in row-major order, padded with
zeros past the team's own rows.  The packer builds the canonical teams
level by level, one level per row count, keeping only parent and row
indices per level, and writes every team's cells into one preallocated
array at the end.  Conflicts between rows i and j (row i's left
projection equal to row j's right projection) are encoded as bit i*4 + j
of a 16-bit word, so row counts are capped at 4.

Masks are uint64 words, one bit per team.  The row-count mask may be
shorter than the others: a bank sorted by row count needs only the prefix
of teams within the row bound, and the masked scan reads no further than
that prefix.  The scan exits early over 64-team words, testing word 0 on
its own before the chunked numpy pass over the rest.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .oracle import DEFAULT_BUDGET

IMPLEMENTATION = "python"
MAX_PACK_ROWS = 4

__all__ = [
    "IMPLEMENTATION",
    "MAX_PACK_ROWS",
    "any_counterexample",
    "conflict_words",
    "enumerate_packed",
]


def _fan_out(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and offset of each slot when owner i gets counts[i] slots."""
    owner = np.repeat(np.arange(counts.shape[0], dtype=np.int32), counts)
    firsts = np.cumsum(counts) - counts
    offset = np.arange(owner.shape[0], dtype=np.int32)
    offset -= np.repeat(firsts.astype(np.int32), counts)
    return owner, offset


def _candidate_rows(
    n_vars: int, max_values: int, top: int, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows that extend a restricted growth string, for each running
    maximum m in 0..top.

    Returns (rows, block, peak): block[i] is the maximum row i extends,
    ascending, and peak[i] the maximum after it.  Within a block the rows
    are in lex order.  The table is built one column at a time; every
    partial row has a completion, so a table that passes the budget is
    refused before it grows further.
    """
    rows = np.zeros((top + 1, 0), dtype=np.uint8)
    block = np.arange(top + 1, dtype=np.int64)
    peak = block.copy()
    for _ in range(n_vars):
        fan = np.minimum(peak + 1, max_values)
        if int(fan.sum()) > budget:
            raise CapacityError(
                f"canonical enumeration needs over {budget} candidate rows"
            )
        owner, offset = _fan_out(fan)
        cell = (offset + 1).astype(np.uint8)
        rows = np.concatenate((rows[owner], cell[:, None]), axis=1)
        block = block[owner]
        peak = np.maximum(peak[owner], cell)
    return rows, block, peak.astype(np.uint8)


def enumerate_packed(
    n_vars: int, max_rows: int, max_values: int, budget: int = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All canonical teams as (cells, n_rows, n_values) arrays.

    The teams are those of the oracle's canonical generator, ordered by
    row count and, within a row count, in the generator's (lex) order.  A
    team of k rows extends its first k - 1 rows, its parent, by a row
    lex-greater than the parent's last row that continues the restricted
    growth string from the parent's largest value m: a suffix of the
    candidate rows for m.  Repeating each parent by its child count, in
    parent order, lists a level in lex order.  Canonical teams introduce
    values 1, 2, 3, ... in order, so a team's largest cell is its number
    of distinct values.

    Only int32 parent and row indices are kept per level; the cells are
    written once, into one preallocated array.  More than `budget` teams,
    or more than `budget` candidate rows, raise CapacityError before an
    array of that size is allocated.
    """
    if max_rows > MAX_PACK_ROWS:
        raise ValueError(f"packed teams hold at most {MAX_PACK_ROWS} rows")
    if max_values > 255:
        raise ValueError("packed cells are uint8, keep max_values under 256")
    if n_vars < 0 or max_rows < 0 or max_values < 0:
        raise ValueError("bounds must be nonnegative")

    def admit(count: int) -> None:
        if count > budget:
            raise CapacityError(
                f"canonical enumeration passed the budget of {budget} teams"
            )

    total = 1  # the empty team
    admit(total)
    if max_rows == 0:
        empty = np.zeros(1, dtype=np.uint8)
        return np.zeros((1, 0), dtype=np.uint8), empty, empty.copy()
    # parents live on levels below max_rows, so their maxima stay under
    # (max_rows - 1) * n_vars
    top = min(max_values, (max_rows - 1) * n_vars)
    rows, block, peak = _candidate_rows(n_vars, max_values, top, budget)
    size = rows.shape[0]
    block_end = np.searchsorted(block, np.arange(top + 1), side="right")
    # a global lex rank, equal for equal rows of different blocks; block
    # and rank together order the whole table strictly
    rank = np.zeros(size, dtype=np.int64)
    if n_vars and size:
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
        fresh = np.zeros(size, dtype=np.int64)
        fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        rank[order] = np.cumsum(fresh)
    key = block * size + rank

    parents: list[np.ndarray] = []
    picks: list[np.ndarray] = []
    first = int(block_end[0])
    total += first
    admit(total)
    parents.append(np.zeros(first, dtype=np.int32))
    picks.append(np.arange(first, dtype=np.int32))
    for _ in range(1, max_rows):
        last = picks[-1]
        if not last.shape[0]:
            break
        m = peak[last].astype(np.int64)
        start = np.searchsorted(key, m * size + rank[last], side="right")
        counts = block_end[m] - start
        total += int(counts.sum())
        admit(total)
        owner, offset = _fan_out(counts)
        offset += np.repeat(start.astype(np.int32), counts)
        parents.append(owner)
        picks.append(offset)

    cells = np.zeros((total, max_rows * n_vars), dtype=np.uint8)
    n_rows = np.zeros(total, dtype=np.uint8)
    n_values = np.zeros(total, dtype=np.uint8)
    begin = 1
    for k, pick in enumerate(picks, start=1):
        end = begin + pick.shape[0]
        n_rows[begin:end] = k
        n_values[begin:end] = peak[pick]
        team = cells[begin:end]
        # walk each team's parent chain from its last row to its first
        chain = parents[k - 1]
        for j in range(k - 1, -1, -1):
            team[:, j * n_vars : (j + 1) * n_vars] = rows[pick]
            if j:
                pick, chain = picks[j - 1][chain], parents[j - 1][chain]
        begin = end
    return cells, n_rows, n_values


def conflict_words(
    cells: np.ndarray, n_rows: np.ndarray, n_vars: int, left: int, right: int
) -> np.ndarray:
    """Per-team 16-bit conflict pattern for one pair of columns: bit
    i * 4 + j is set when row i's cell in column left equals row j's cell
    in column right, both rows within the team."""
    # one contiguous copy of the column per row
    lefts = cells[:, left::n_vars].T.copy()
    rights = cells[:, right::n_vars].T.copy()
    live = [n_rows > i for i in range(lefts.shape[0])]
    words = np.zeros(cells.shape[0], dtype=np.uint16)
    for i, lhs in enumerate(lefts):
        for j, rhs in enumerate(rights):
            hit = lhs == rhs
            hit &= live[max(i, j)]
            words |= hit.astype(np.uint16) << np.uint16(i * 4 + j)
    return words


def any_counterexample(
    a: np.ndarray, b: np.ndarray, g: np.ndarray, rc: np.ndarray, nv: np.ndarray
) -> bool:
    """Whether any packed team satisfies both constraint masks, evades the
    goal mask, and lies within the row-count and value-count masks.

    Only the first rc.shape[0] words are scanned: teams past the end of
    the row-count mask count as outside it.  The other masks must be at
    least that long.

    The scan exits early over 64-team words.  Word 0 is tested first, as
    Python ints: the bank is sorted by row count, so it holds the small
    teams that refute most non-implications, and most refuted instances
    stop there without a numpy temporary.  The rest is ANDed in chunks of
    4096 words from word 1, stopping at the first chunk with a hit.
    """
    n = rc.shape[0]
    if not n:
        return False
    if rc.item(0) & a.item(0) & b.item(0) & nv.item(0) & ~g.item(0):
        return True
    step = 4096
    for s in range(1, n, step):
        e = min(s + step, n)
        w = rc[s:e] & a[s:e]
        w &= b[s:e]
        w &= nv[s:e]
        w &= ~g[s:e]
        if w.any():
            return True
    return False
