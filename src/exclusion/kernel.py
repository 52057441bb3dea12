"""Packed canonical teams: the bank's format, its masks and its scan.

Teams are packed into flat numpy arrays: one row of `cells` per team,
holding max_rows * n_vars uint8 values in row-major order, padded with
zeros past the team's own rows.  The bank is stored column-major: one
contiguous array per cell position (row r, variable v), and `cells` is
the transpose view of that (max_rows * n_vars, teams) array, so row
r * n_vars + v of `cells.T` holds every team's cell at that position.
Its shape, dtype and C-order bytes are those of the row-major layout.
`enumerate_packed` builds the canonical teams (one per class under value
renaming; satisfaction only compares values for equality, so they carry
the whole space) level by level, one level per row count.  A bank is
therefore sorted by row count, and the teams within a row bound are a
prefix.

Conflicts between rows i and j (row i's left projection equal to row j's
right projection) are encoded as bit i*4 + j of a 16-bit word, so row
counts are capped at 4.  A tuple conflict is a conflict at every
position, so a multi-column word is the AND of single-column words.
`conflict_words` builds a single-column word from whole arrays of
`cells.T`, padding rows included, and then clears the bits of rows past
each team's row count by one lookup on that count.  `removal_table` maps
each word to the least number of rows covering every conflict, which is
exactly the removal count the semantics module computes.  A team
satisfies an atom of degree num/den when that count is at most
floor(num * rows / den).

A mask (`pack_mask`) is a `Mask`: uint64 words, one bit per team, and
two summary bitmaps over blocks of `BLOCK` words.  `live` has bit i set
when block i holds a team in the mask, `gaps` when it holds a bank team
outside the mask; `head` is block 0's words as one int.  The row-count
mask may be shorter than the others: it covers only the prefix of teams
within the row bound, and the masked scan reads no further.  The scan
tests `head` as Python ints, ANDs the summaries to find the blocks where
a counterexample can lie, and reads words only from the first of those
to the last.  `TeamBank` holds one bank and builds these masks, caching
what its callers ask for again.

A satisfaction mask is built once per atom class.  Whether a team
satisfies x |_p y depends only on p and on the set of pairs
(x_i, y_i): a tuple conflict is the AND of its positions' conflicts, so
reordering or repeating positions leaves the word unchanged, and
swapping the sides (A2) moves bit i*4 + j to bit j*4 + i
(`transpose_table`), which keeps the removal count, since a removed row
takes both of its bits with it.  The bank therefore keys a mask by the
degree and by the sorted distinct (left, right) column pairs or their
side-swapped sort, whichever is lower; the keystone's 270 atoms fall
into 81 classes.  A swapped column pair's word is likewise transposed
from its mirror's instead of computed again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_BUDGET, CapacityError

IMPLEMENTATION = "python"
MAX_PACK_ROWS = 4
# words per summary bit of a Mask
BLOCK = 8

__all__ = [
    "BLOCK",
    "IMPLEMENTATION",
    "MAX_PACK_ROWS",
    "Mask",
    "TeamBank",
    "any_counterexample",
    "conflict_words",
    "enumerate_packed",
    "pack_mask",
    "removal_table",
    "transpose_table",
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
    written once, into one preallocated column-major array, a level at a
    time: each cell position's array takes the parents' cells of that
    position, written one level earlier, and the new row's cells from
    the candidate rows, each by one 1-D take.  The caller gets the
    transpose view (module docstring).  More than `budget` teams, or more
    than `budget` candidate rows, raise CapacityError before an array of
    that size is allocated.
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
    # and rank together order the whole table strictly (numpy 2.0.0 gives
    # the inverse a second axis, hence the reshape)
    rank = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
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

    # row r's variable v is columns[r * n_vars + v]
    columns = np.zeros((max_rows * n_vars, total), dtype=np.uint8)
    n_rows = np.zeros(total, dtype=np.uint8)
    n_values = np.zeros(total, dtype=np.uint8)
    new_cells = np.ascontiguousarray(rows.T)
    above, begin = 0, 1  # the parent level's first team, this level's
    for k, (parent, pick) in enumerate(zip(parents, picks), start=1):
        end = begin + pick.shape[0]
        n_rows[begin:end] = k
        n_values[begin:end] = peak[pick]
        width = (k - 1) * n_vars
        for column in columns[:width]:
            column[above:begin].take(parent, out=column[begin:end])
        for column, cell in zip(columns[width : width + n_vars], new_cells):
            cell.take(pick, out=column[begin:end])
        above, begin = begin, end
    return columns.T, n_rows, n_values


# for each row count 0..4, the word bits whose two rows both lie within it
_ROW_BITS = np.array(
    [
        sum(1 << (i * 4 + j) for i in range(k) for j in range(k))
        for k in range(MAX_PACK_ROWS + 1)
    ],
    dtype=np.uint16,
)


def conflict_words(
    cells: np.ndarray, n_rows: np.ndarray, n_vars: int, left: int, right: int
) -> np.ndarray:
    """Per-team 16-bit conflict pattern for one pair of columns: bit
    i * 4 + j is set when row i's cell in column left equals row j's cell
    in column right, both rows within the team.

    Row i's cells in a column are row i * n_vars + column of
    ``cells.T``, read in place: one contiguous array for a bank's
    column-major cells, a strided view for any other layout, with the
    same words.  Every row pair is compared over all teams, padding rows
    included; the bits of rows past a team's row count are then cleared
    once, through the allowed bits of its row count, for the teams with
    fewer than max_rows rows.  For a self pair (left == right) row i
    equals itself, so the diagonal bit i * 4 + i is set exactly when the
    team has more than i rows, and rows i and j conflict both ways or
    neither, so each pair i < j is compared once and sets both bits.
    """
    lefts = cells.T[left::n_vars]
    rights = cells.T[right::n_vars]
    max_rows = lefts.shape[0]
    count = cells.shape[0]
    rows = range(max_rows)
    if left == right:
        # bits 0, 5, 10 and 15: each row against itself
        words = (_ROW_BITS & np.uint16(0x8421)).take(n_rows)
        pairs = [
            (i, j, 1 << (i * 4 + j) | 1 << (j * 4 + i)) for i in rows for j in rows if i < j
        ]
    else:
        words = np.zeros(count, dtype=np.uint16)
        pairs = [(i, j, 1 << (i * 4 + j)) for i in rows for j in rows]
    hit = np.empty(count, dtype=bool)
    bits = np.empty(count, dtype=np.uint16)
    for i, j, bit in pairs:
        np.equal(lefts[i], rights[j], out=hit)
        np.multiply(hit, np.uint16(bit), out=bits)
        words |= bits
    short = np.flatnonzero(n_rows < max_rows)
    words[short] &= _ROW_BITS.take(n_rows[short])
    return words


@cache
def removal_table() -> np.ndarray:
    """Least rows covering every conflict, for each 16-bit conflict word."""
    words = np.arange(1 << 16, dtype=np.uint32)
    best = np.full(words.shape, 255, dtype=np.uint8)
    for chosen in range(1 << 4):
        killed = 0
        for i in range(4):
            if chosen >> i & 1:
                for j in range(4):
                    killed |= 1 << (i * 4 + j)
                    killed |= 1 << (j * 4 + i)
        covered = (words & ~np.uint32(killed)) == 0
        size = bin(chosen).count("1")
        np.minimum(best, np.where(covered, size, 255).astype(np.uint8), out=best)
    return best


@cache
def transpose_table() -> np.ndarray:
    """Each 16-bit conflict word with bit i * 4 + j moved to bit j * 4 + i:
    the word of the same columns with left and right swapped."""
    words = np.arange(1 << 16, dtype=np.uint32)
    out = np.zeros(words.shape, dtype=np.uint16)
    for i in range(4):
        for j in range(4):
            bit = (words >> np.uint32(i * 4 + j)) & np.uint32(1)
            out |= bit.astype(np.uint16) << np.uint16(j * 4 + i)
    return out


class Mask(NamedTuple):
    """A packed team mask and the summaries its scan reads first."""

    words: np.ndarray  # uint64, bit t of the array is team t
    head: int  # block 0's words as one little-endian int
    live: int  # bit i: block i holds a team in the mask
    gaps: int  # bit i: block i holds a bank team outside the mask


def _bits(flags: np.ndarray) -> int:
    """Bools as one int, flag i at bit i."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def pack_mask(flags: np.ndarray) -> Mask:
    """Bools to a `Mask` of flags.shape[0] teams, zero-padded at the top.

    np.packbits pads its last byte with zeros itself; its bytes go into
    one zeroed buffer of whole blocks, and the words and both summaries
    are read from views of it.  Bits past flags.shape[0] are padding, not
    teams, so they never make a gap.  The words are read-only: a bank
    hands one mask to many callers.
    """
    count = flags.shape[0]
    block_bits = BLOCK * 64
    blocks = -(-count // block_bits)
    buffer = np.zeros(blocks * BLOCK * 8, dtype=np.uint8)
    packed = np.packbits(flags, bitorder="little")
    buffer[: packed.shape[0]] = packed
    grid = buffer.view(np.uint64).reshape(blocks, BLOCK)
    # a block's 8 per-word flags are 8 bytes: read as one uint64, they are
    # nonzero when any flag is set (this is why BLOCK is 8)
    live = (grid != 0).view(np.uint64)[:, 0] != 0
    gaps = (grid != ~np.uint64(0)).view(np.uint64)[:, 0] != 0
    if count % block_bits:
        gaps[-1] = not flags[count - count % block_bits :].all()
    words = buffer[: -(-count // 64) * 8].view(np.uint64)
    words.flags.writeable = False
    return Mask(
        words,
        int.from_bytes(buffer[: BLOCK * 8].tobytes(), "little"),
        _bits(live),
        _bits(gaps),
    )


def any_counterexample(a: Mask, b: Mask, g: Mask, rc: Mask, nv: Mask) -> bool:
    """Whether any packed team satisfies both constraint masks, evades the
    goal mask, and lies within the row-count and value-count masks.

    Only the teams of the row-count mask are scanned: teams past its end
    count as outside it.  The other masks must cover at least those teams.

    Block 0 is tested first, as the Python ints `head`: the bank is
    sorted by row count, so block 0 holds the small teams that refute most
    non-implications, and a row mask of at most 3 words lies inside it.
    The summaries then bound the rest.  A hit at team t of block i is a
    team in rc, a, b and nv, so bit i is set in their four `live`
    summaries; it is a bank team outside g, so bit i is set in `g.gaps`.
    A block whose bit is clear in any of the five holds no hit, so the
    AND of the summaries, block 0 dropped, is a superset of the blocks
    with a hit, and when it is 0 the answer is False with no word read.
    Otherwise the words from its first block to its last, clipped to rc's
    words, are ANDed in chunks of 4096 words, stopping at the first chunk
    with a hit.
    """
    if rc.head & a.head & b.head & nv.head & ~g.head:
        return True
    # bit j stands for block j + 1
    candidates = (rc.live & a.live & b.live & nv.live & g.gaps) >> 1
    if not candidates:
        return False
    start = (candidates & -candidates).bit_length() * BLOCK
    end = min((candidates.bit_length() + 1) * BLOCK, rc.words.shape[0])
    step = 4096
    for s in range(start, end, step):
        e = min(s + step, end)
        w = rc.words[s:e] & a.words[s:e]
        w &= b.words[s:e]
        w &= nv.words[s:e]
        w &= ~g.words[s:e]
        if w.any():
            return True
    return False


def _sides(left_cols, right_cols) -> tuple[tuple, tuple]:
    """Both column tuples as tuples, refused unless nonempty and of equal
    length."""
    left_cols, right_cols = tuple(left_cols), tuple(right_cols)
    if not left_cols or len(left_cols) != len(right_cols):
        raise ValueError("column tuples must be nonempty and of equal length")
    return left_cols, right_cols


def _class_columns(left_cols: tuple, right_cols: tuple) -> tuple[tuple, tuple]:
    """The column tuples standing for an atom's class: its sorted distinct
    (left, right) pairs, or their side-swapped sort if that is lower."""
    pairs = sorted(set(zip(left_cols, right_cols)))
    swapped = sorted((right, left) for left, right in pairs)
    lefts, rights = zip(*min(pairs, swapped))
    return lefts, rights


class TeamBank:
    """Canonical teams packed for mask scans, sorted by row count.

    A bank builds one satisfaction mask per atom class (module docstring)
    and hands the same `Mask` to every atom of the class.
    """

    def __init__(
        self,
        n_vars: int,
        max_rows: int,
        max_values: int,
        cells: np.ndarray,
        n_rows: np.ndarray,
        n_values: np.ndarray,
    ):
        self.n_vars = n_vars
        self.max_rows = max_rows
        self.max_values = max_values
        self.cells = cells
        self.n_rows = n_rows
        self.n_values = n_values
        self._words: dict[tuple[int, int], np.ndarray] = {}
        self._removed: tuple[tuple, np.ndarray] | None = None
        self._masks: dict[tuple, Mask] = {}
        self._budgets: dict[Fraction, np.ndarray] = {}
        self._rows_le: dict[int, Mask] = {}
        self._values_le: dict[int, Mask] = {}

    @classmethod
    def build(cls, n_vars: int, max_rows: int, max_values: int) -> "TeamBank":
        cells, n_rows, n_values = enumerate_packed(
            n_vars, max_rows, max_values, DEFAULT_BUDGET
        )
        return cls(n_vars, max_rows, max_values, cells, n_rows, n_values)

    @property
    def size(self) -> int:
        return self.cells.shape[0]

    def conflict_words(self, left_cols, right_cols) -> np.ndarray:
        """The conflict word for a pair of column tuples.

        Two rows conflict on tuples exactly when they conflict at every
        position, and masking bits past the row count commutes with AND,
        so a multi-column word is the AND of single-column words.  Only
        those are cached: at most n_vars ** 2 arrays.
        """
        left_cols, right_cols = _sides(left_cols, right_cols)
        words = self._column_word(left_cols[0], right_cols[0])
        for left, right in zip(left_cols[1:], right_cols[1:]):
            words = words & self._column_word(left, right)
        return words

    def _column_word(self, left: int, right: int) -> np.ndarray:
        """One column pair's word; the swapped pair's cached word, if there
        is one, is transposed instead of computed again."""
        key = (left, right)
        words = self._words.get(key)
        if words is None:
            mirror = self._words.get((right, left))
            if mirror is None:
                words = conflict_words(self.cells, self.n_rows, self.n_vars, left, right)
            else:
                words = transpose_table().take(mirror)
            self._words[key] = words
        return words

    def satisfaction_mask(self, left_cols, right_cols, degree: Fraction) -> Mask:
        """Teams satisfying left_cols |_degree right_cols, built once per
        class (module docstring): atoms of one degree whose (left, right)
        column pairs form the same set, up to a side swap, get the same
        `Mask` object.  The sides are checked before the key is built,
        since zip would silently cut the longer one.
        """
        cols = _class_columns(*_sides(left_cols, right_cols))
        key = (degree, cols)
        mask = self._masks.get(key)
        if mask is None:
            fits = self._removal_counts(cols) <= self._budget(degree)
            mask = self._masks[key] = pack_mask(fits)
        return mask

    def _removal_counts(self, cols: tuple) -> np.ndarray:
        """Rows each team must lose for a class's column tuples.

        Only the last class's counts are kept: callers ask for the degrees
        of one atom in a row, and one array is the size of the bank.
        """
        if self._removed is None or self._removed[0] != cols:
            words = self.conflict_words(*cols)
            self._removed = (cols, removal_table().take(words))
        return self._removed[1]

    def _budget(self, degree: Fraction) -> np.ndarray:
        """Most rows each team may lose at this degree, floor(degree * rows).

        For nonnegative integers, removed * den <= num * rows holds exactly
        when removed <= (num * rows) // den, so one uint8 compare decides
        satisfaction.
        """
        budget = self._budgets.get(degree)
        if budget is None:
            budget = self._budgets[degree] = (
                self.n_rows.astype(np.int64) * degree.numerator // degree.denominator
            ).astype(np.uint8)
        return budget

    def row_mask(self, max_rows: int) -> Mask:
        """Teams with at most max_rows rows, packed up to the last of them.

        The bank is sorted by row count, so these teams are a prefix and
        the mask is only as many words as that prefix needs.
        """
        k = min(max_rows, self.max_rows)
        mask = self._rows_le.get(k)
        if mask is None:
            end = int(np.searchsorted(self.n_rows, k, side="right"))
            mask = self._rows_le[k] = pack_mask(np.ones(end, dtype=bool))
        return mask

    def value_mask(self, max_values: int) -> Mask:
        """Teams with at most max_values values; no bank team has more
        than the bank's max_values, so every larger bound shares its mask."""
        d = min(max_values, self.max_values)
        mask = self._values_le.get(d)
        if mask is None:
            mask = self._values_le[d] = pack_mask(self.n_values <= d)
        return mask

    def all_mask(self) -> Mask:
        return self.row_mask(self.max_rows)
