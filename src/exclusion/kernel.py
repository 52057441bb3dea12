"""Numpy scan primitives for the bounded sweep.

Teams are packed into flat numpy arrays: one row of `cells` per team,
holding max_rows * n_vars uint8 values in row-major order, padded with
zeros past the team's own rows.  The packer streams the canonical
generator into byte buffers and views them as arrays, so the team list is
never materialised.  Conflicts between rows i and j (row i's left
projection equal to row j's right projection) are encoded as bit i*4 + j
of a 16-bit word, so row counts are capped at 4.

Masks are uint64 words, one bit per team.  The row-count mask may be
shorter than the others: a bank sorted by row count needs only the prefix
of teams within the row bound, and the masked scan reads no further than
that prefix.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .oracle import DEFAULT_BUDGET, enumerate_row_sets

IMPLEMENTATION = "python"
MAX_PACK_ROWS = 4

__all__ = [
    "IMPLEMENTATION",
    "MAX_PACK_ROWS",
    "any_counterexample",
    "conflict_words",
    "enumerate_packed",
]


def enumerate_packed(
    n_vars: int, max_rows: int, max_values: int, budget: int = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All canonical teams as (cells, n_rows, n_values) arrays.

    The generator is consumed as a stream: each team's cells, zero-padded
    to the full width, go straight into one byte buffer and its row count
    into another, so no list of teams is held.  Canonical teams introduce
    values 1, 2, 3, ... in order, so a team's largest cell is its number of
    distinct values.
    """
    if max_rows > MAX_PACK_ROWS:
        raise ValueError(f"packed teams hold at most {MAX_PACK_ROWS} rows")
    if max_values > 255:
        raise ValueError("packed cells are uint8, keep max_values under 256")
    width = max_rows * n_vars
    pads = [bytes(width - k * n_vars) for k in range(max_rows + 1)]
    flat = bytearray()
    counts = bytearray()
    put = flat.extend
    count = counts.append
    join = chain.from_iterable
    for rows in enumerate_row_sets(
        n_vars, max_rows, max_values, canonical=True, budget=budget
    ):
        put(bytes(join(rows)))
        put(pads[len(rows)])
        count(len(rows))
    n_rows = np.frombuffer(counts, dtype=np.uint8)
    cells = np.frombuffer(flat, dtype=np.uint8).reshape(n_rows.shape[0], width)
    return cells, n_rows, cells.max(axis=1, initial=0)


def conflict_words(
    cells: np.ndarray,
    n_rows: np.ndarray,
    n_vars: int,
    left_cols,
    right_cols,
) -> np.ndarray:
    """Per-team 16-bit conflict pattern for one pair of column tuples."""
    count, width = cells.shape
    max_rows = width // n_vars
    grid = cells.reshape(count, max_rows, n_vars)
    left = grid[:, :, list(left_cols)]
    right = grid[:, :, list(right_cols)]
    words = np.zeros(count, dtype=np.uint16)
    for i in range(max_rows):
        for j in range(max_rows):
            hit = (left[:, i, :] == right[:, j, :]).all(axis=1)
            hit &= (n_rows > i) & (n_rows > j)
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
    """
    n = rc.shape[0]
    step = 4096
    for s in range(0, n, step):
        e = min(s + step, n)
        w = rc[s:e] & a[s:e]
        w &= b[s:e]
        w &= nv[s:e]
        w &= ~g[s:e]
        if w.any():
            return True
    return False
