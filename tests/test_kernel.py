"""Packed-team kernel: enumeration, conflict words, masked scans, the bank.

The kernels must agree with brute force, and the 65536-entry removal
table must agree with the reference removal engine.
"""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from exclusion import CapacityError, atom, kernel, satisfies
from exclusion.kernel import BLOCK, IMPLEMENTATION, TeamBank, pack_mask, removal_table
from exclusion.model import team_from_rows
from exclusion.oracle import enumerate_row_sets
from exclusion.semantics import min_removal_indexed
from exclusion.sweep import KEYSTONE_DEGREES, KEYSTONE_VARS, keystone_atoms


def bank_order_teams(n_vars, max_rows, max_values):
    """The oracle generator's teams, stably sorted by row count: the order
    enumerate_packed lists them in."""
    return sorted(enumerate_row_sets(n_vars, max_rows, max_values), key=len)


def reference_enumerate_packed(n_vars, max_rows, max_values):
    """The bank-ordered teams packed one team at a time, each zero-padded
    to the full width, with its largest cell as its value count."""
    teams = bank_order_teams(n_vars, max_rows, max_values)
    count = len(teams)
    cells = np.zeros((count, max_rows * n_vars), dtype=np.uint8)
    n_rows = np.zeros(count, dtype=np.uint8)
    n_values = np.zeros(count, dtype=np.uint8)
    for t, rows in enumerate(teams):
        flat = [c for row in rows for c in row]
        cells[t, : len(flat)] = flat
        n_rows[t] = len(rows)
        n_values[t] = max(flat, default=0)
    return cells, n_rows, n_values


def reference_conflict_words(cells, n_rows, n_vars, left_cols, right_cols):
    """Conflict words of column tuples compared whole, row pair by row pair."""
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


def reference_satisfaction_mask(bank, left_cols, right_cols, degree):
    """The mask satisfaction_mask replaced: a conflict word of the column
    tuples and the removal budget compared by int64 cross multiplication."""
    words = reference_conflict_words(
        bank.cells, bank.n_rows, bank.n_vars, left_cols, right_cols
    )
    removed = removal_table()[words]
    fits = (
        removed.astype(np.int64) * degree.denominator
        <= degree.numerator * bank.n_rows.astype(np.int64)
    )
    return pack_mask(fits)


class TestPackedEnumeration:
    def test_matches_generator(self):
        cells, n_rows, n_values = kernel.enumerate_packed(2, 3, 6)
        reference = bank_order_teams(2, 3, 6)
        assert len(cells) == len(reference)
        for packed, rows, count in zip(cells, reference, n_rows):
            assert count == len(rows)
            flat = [c for row in rows for c in row]
            assert list(packed[: len(flat)]) == flat
            assert not packed[len(flat) :].any()

    def test_value_counts(self):
        cells, n_rows, n_values = kernel.enumerate_packed(2, 2, 4)
        for packed, count, values in zip(cells, n_rows, n_values):
            flat = packed[: count * 2]
            assert values == len(set(flat.tolist()))

    def test_row_cap_enforced(self):
        with pytest.raises(ValueError):
            kernel.enumerate_packed(2, 5, 4)

    @pytest.mark.parametrize(
        "shape",
        [
            (2, 3, 6),
            (3, 2, 4),
            (1, 1, 1),
            (0, 2, 3),
            (2, 0, 3),
            (2, 2, 0),
            (3, 4, 12),
            (3, 3, 5),
            (2, 4, 8),
        ],
    )
    def test_matches_reference_packer(self, shape):
        got = kernel.enumerate_packed(*shape)
        expected = reference_enumerate_packed(*shape)
        for name, a, b in zip(("cells", "n_rows", "n_values"), got, expected):
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            assert np.array_equal(a, b), name

    def test_budget_enforced(self):
        with pytest.raises(CapacityError):
            kernel.enumerate_packed(2, 3, 6, budget=5)
        # 40-cell rows: refused while the candidate rows are counted,
        # before any array of the space's size exists
        with pytest.raises(CapacityError):
            kernel.enumerate_packed(40, 4, 255)

    @pytest.mark.parametrize("shape", [(3, 3, 5), (2, 4, 8), (1, 1, 1), (2, 0, 3)])
    def test_budget_boundary(self, shape):
        # the budget counts teams, the empty one included, like the
        # oracle's generator
        count = len(bank_order_teams(*shape))
        assert kernel.enumerate_packed(*shape, budget=count)[0].shape[0] == count
        with pytest.raises(CapacityError, match="passed the budget"):
            kernel.enumerate_packed(*shape, budget=count - 1)


def brute_conflict_word(rows, left_cols, right_cols):
    word = 0
    for i, r1 in enumerate(rows):
        for j, r2 in enumerate(rows):
            if all(r1[a] == r2[b] for a, b in zip(left_cols, right_cols)):
                word |= 1 << (i * 4 + j)
    return word


class TestConflictWords:
    def test_against_brute_force(self):
        # (2, 4, 8) has teams of every row count up to 4, so its self pair
        # (1, 1) reaches the diagonal set from the row count and the
        # clearing of bits past the row count on teams shorter than 4 rows
        for shape in [(2, 3, 6), (2, 4, 8)]:
            cells, n_rows, _ = kernel.enumerate_packed(*shape)
            reference = bank_order_teams(*shape)
            for left, right in [(0, 1), (1, 0), (1, 1)]:
                words = kernel.conflict_words(cells, n_rows, 2, left, right)
                for w, rows in zip(words, reference):
                    assert int(w) == brute_conflict_word(rows, (left,), (right,))

    def test_words_do_not_depend_on_memory_layout(self):
        cells, n_rows, _ = kernel.enumerate_packed(3, 4, 4)
        copy = np.ascontiguousarray(cells)
        # the bank's cells are a transposed view, so the copy is laid out
        # differently and holds the same bytes in C order
        assert not cells.flags.c_contiguous and copy.flags.c_contiguous
        assert copy.tobytes() == cells.tobytes()
        for left, right in product(range(3), repeat=2):
            words = kernel.conflict_words(cells, n_rows, 3, left, right)
            again = kernel.conflict_words(copy, n_rows, 3, left, right)
            assert words.dtype == again.dtype == np.uint16
            assert np.array_equal(words, again), (left, right)

    def test_bank_tuples_against_brute_force(self):
        bank = TeamBank.build(2, 3, 6)
        reference = bank_order_teams(2, 3, 6)
        for left, right in [((0, 1), (1, 0)), ((0, 0), (1, 0)), ((1,), (1,))]:
            words = bank.conflict_words(left, right)
            for w, rows in zip(words, reference):
                assert int(w) == brute_conflict_word(rows, left, right)

    def test_padding_rows_never_conflict(self):
        cells, n_rows, _ = kernel.enumerate_packed(1, 2, 3)
        words = kernel.conflict_words(cells, n_rows, 1, 0, 0)
        for w, count in zip(words, n_rows):
            # bits touching rows >= count must be clear
            for i in range(4):
                for j in range(4):
                    if i >= count or j >= count:
                        assert not (int(w) >> (i * 4 + j)) & 1


class TestRemovalTable:
    def test_exhaustive_against_reference(self):
        table = removal_table()
        reference = list(enumerate_row_sets(2, 4, 8))
        rng = random.Random(4)
        sample = rng.sample(range(len(reference)), 400)
        for idx in sample:
            rows = [tuple(str(c) for c in row) for row in reference[idx]]
            columns = list(zip(*rows)) if rows else [(), ()]
            for left, right in [((0,), (1,)), ((0, 1), (1, 0))]:
                word = brute_conflict_word(reference[idx], left, right)
                expected = min_removal_indexed(columns, left, right)
                assert int(table[word]) == expected

    def test_empty_word_needs_no_removal(self):
        assert int(removal_table()[0]) == 0


def pack_words(words, count=None):
    """The Mask pack_mask builds from the first count bits of uint64 words
    (all of them by default)."""
    flags = np.unpackbits(words.view(np.uint8), bitorder="little", count=count)
    return pack_mask(flags.astype(bool))


def brute_summaries(flags):
    """(head, live, gaps) of a flag array, block by block."""
    span = BLOCK * 64
    head = sum(1 << t for t in range(min(len(flags), span)) if flags[t])
    live = gaps = 0
    for i in range(math.ceil(len(flags) / span)):
        block = flags[i * span : (i + 1) * span]
        live |= bool(block.any()) << i
        gaps |= (not block.all()) << i
    return head, live, gaps


class TestPackMask:
    COUNTS = [0, 1, 63, 64, 65, 511, 512, 513, 4097 * 64 + 5]

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("fill", ["random", "ones", "zeros", "one gap"])
    def test_summaries_match_brute_force(self, count, fill):
        rng = np.random.default_rng(count)
        flags = {
            "random": rng.random(count) < 0.5,
            "ones": np.ones(count, dtype=bool),
            "zeros": np.zeros(count, dtype=bool),
            "one gap": np.arange(count) != count - 1,
        }[fill]
        mask = pack_mask(flags)
        padded = np.zeros(math.ceil(count / 64) * 64, dtype=bool)
        padded[:count] = flags
        expected = np.packbits(padded, bitorder="little").view(np.uint64)
        assert mask.words.dtype == np.uint64
        assert np.array_equal(mask.words, expected)
        assert (mask.head, mask.live, mask.gaps) == brute_summaries(flags)
        if fill == "ones":
            # padding bits are not bank teams, so never a gap
            assert mask.gaps == 0


# word 7 is the last of block 0, word 8 the first of block 1
HIT_WORDS = {"word 0": 0, "word 1": 1, "word 7": 7, "word 8": 8}


class TestMaskedScan:
    def masks(self, n, rng):
        flags = np.asarray([rng.randrange(2) for _ in range(n)], dtype=bool)
        return flags, pack_mask(flags)

    def test_matches_numpy_any(self):
        rng = random.Random(6)
        for n in (1, 63, 64, 65, 300):
            raw = []
            packed = []
            for _ in range(5):
                flags, words = self.masks(n, rng)
                raw.append(flags)
                packed.append(words)
            hits = raw[0] & raw[1] & ~raw[2] & raw[3] & raw[4]
            got = kernel.any_counterexample(*packed)
            assert bool(got) == bool(np.any(hits))

            # A row mask shorter than the others bounds the scan: bits the
            # other masks set past its end must not count.
            prefix = n // 2
            short = pack_mask(raw[3][:prefix])
            got = kernel.any_counterexample(*packed[:3], short, packed[4])
            assert bool(got) == bool(np.any(hits[:prefix]))
        # every team past a two-word row prefix is a hit, none inside it
        late = np.arange(300) >= 128
        ones = pack_mask(np.ones(300, dtype=bool))
        none = pack_mask(np.zeros(300, dtype=bool))
        short = pack_mask(np.ones(128, dtype=bool))
        assert short.words.shape[0] == 2
        assert kernel.any_counterexample(pack_mask(late), ones, none, ones, ones)
        assert not kernel.any_counterexample(pack_mask(late), ones, none, short, ones)

    # (words, where the hit is): block 0 (words 0-7) is tested as ints,
    # the candidate blocks after it in 4096-word chunks, so 4,097 and 9,000
    # words reach a second and a third chunk
    PLACES = [
        (words, place)
        for words in (1, 2, 9, 4097, 9000)
        for place in (*HIT_WORDS, "last word", "nowhere", "full goal word 0")
        if HIT_WORDS.get(place, 0) < words
    ]

    @staticmethod
    def word_masks(words, seed):
        """Random (a, b, g, rc, nv) words with no hit anywhere: g covers
        every bit the other four share."""
        rng = np.random.default_rng(seed)
        a, b, rc, nv, noise = (
            np.frombuffer(rng.bytes(8 * words), dtype=np.uint64).copy() for _ in range(5)
        )
        return a, b, (a & b & rc & nv) | noise, rc, nv

    @staticmethod
    def plant(masks, word, bit=5):
        a, b, g, rc, nv = masks
        one = np.uint64(1 << bit)
        for m in (a, b, rc, nv):
            m[word] |= one
        g[word] &= ~one

    @staticmethod
    def reference(a, b, g, rc, nv):
        n = rc.shape[0]
        return bool(np.any(rc & a[:n] & b[:n] & nv[:n] & ~g[:n]))

    @pytest.mark.parametrize("words, place", PLACES)
    def test_matches_whole_array_reference(self, words, place):
        masks = self.word_masks(words, words)
        if place == "full goal word 0":
            # every team of word 0 is in the other four masks and none
            # evades the goal: no hit there
            for m in masks:
                m[0] = np.uint64(2**64 - 1)
        elif place != "nowhere":
            self.plant(masks, HIT_WORDS.get(place, words - 1))
        expected = place not in ("nowhere", "full goal word 0")
        assert self.reference(*masks) is expected
        assert kernel.any_counterexample(*map(pack_words, masks)) is expected

    @pytest.mark.parametrize("prefix", [1, 2, 12, 4097, 4098])
    def test_short_row_mask_bounds_the_word_scan(self, prefix):
        masks = self.word_masks(9000, prefix)
        self.plant(masks, prefix)  # first word past the row mask
        a, b, g, rc, nv = masks
        short = rc[:prefix].copy()
        packed = [pack_words(m) for m in (a, b, g, short, nv)]
        assert not kernel.any_counterexample(*packed)
        self.plant((a, b, g, short, nv), prefix - 1)  # last word inside it
        assert self.reference(a, b, g, short, nv)
        packed = [pack_words(m) for m in (a, b, g, short, nv)]
        assert kernel.any_counterexample(*packed)

    @pytest.mark.parametrize("teams", [11 * 64 + 5, 4097 * 64 + 5])
    def test_row_mask_ending_mid_block(self, teams):
        # a, b and nv hold every team; the goal misses the first team past
        # the row mask's end, then also the row mask's last team
        ones = np.full(9000, 2**64 - 1, dtype=np.uint64)
        full, rc = pack_words(ones), pack_words(ones, teams)
        goal = ones.copy()
        goal[teams // 64] &= ~np.uint64(1 << teams % 64)
        assert not kernel.any_counterexample(full, full, pack_words(goal), rc, full)
        goal[(teams - 1) // 64] &= ~np.uint64(1 << (teams - 1) % 64)
        assert kernel.any_counterexample(full, full, pack_words(goal), rc, full)

    @pytest.mark.parametrize("teams", [100, 9 * 64 + 5, 4097 * 64 + 5])
    def test_goal_missing_only_padding_has_no_hit(self, teams):
        # every team is in all five masks; the goal's only clear bits are
        # the padding past the last team, which is not a team
        ones = pack_mask(np.ones(teams, dtype=bool))
        assert ones.gaps == 0
        assert not kernel.any_counterexample(ones, ones, ones, ones, ones)
        goal = np.ones(teams, dtype=bool)
        goal[teams // 2] = False
        assert kernel.any_counterexample(ones, ones, pack_mask(goal), ones, ones)

    def test_words_are_read_only_in_candidate_blocks(self):
        # a hit in block 2, behind a goal whose gaps summary rules block 2
        # out: a scan that trusts the summaries never reads its words
        ones = pack_mask(np.ones(3 * BLOCK * 64, dtype=bool))
        goal = np.ones(3 * BLOCK * 64, dtype=bool)
        goal[2 * BLOCK * 64 + 5] = False
        g = pack_mask(goal)
        assert g.gaps == 0b100
        assert kernel.any_counterexample(ones, ones, g, ones, ones)
        assert not kernel.any_counterexample(ones, ones, g._replace(gaps=0), ones, ones)

    def test_zero_word_row_mask_finds_nothing(self):
        ones = pack_mask(np.ones(3 * 64, dtype=bool))
        none = pack_mask(np.zeros(3 * 64, dtype=bool))
        empty = pack_mask(np.zeros(0, dtype=bool))
        assert empty.words.shape[0] == 0
        assert kernel.any_counterexample(ones, ones, none, ones, ones)
        assert not kernel.any_counterexample(ones, ones, none, empty, ones)

    def test_pack_mask_round_trip(self):
        rng = random.Random(13)
        flags = np.asarray([rng.randrange(2) for _ in range(130)], dtype=bool)
        words = pack_mask(flags).words
        unpacked = np.unpackbits(
            words.view(np.uint8), bitorder="little", count=len(flags)
        ).astype(bool)
        assert np.array_equal(unpacked, flags)
        # padding bits beyond the flag count stay zero
        tail = np.unpackbits(words.view(np.uint8), bitorder="little")[len(flags):]
        assert not tail.any()


@pytest.fixture(scope="module")
def bank():
    return TeamBank.build(2, 3, 6)


class TestTeamBank:

    def test_sorted_by_row_count(self, bank):
        assert np.all(np.diff(bank.n_rows.astype(int)) >= 0)

    def test_satisfaction_mask_matches_semantics(self, bank):
        schema = ("a", "b")
        checks = 0
        for left_cols, right_cols, degree in [
            ((0,), (1,), Fraction(0)),
            ((0,), (1,), Fraction(1, 3)),
            ((0, 1), (1, 0), Fraction(1, 4)),
            ((1,), (1,), Fraction(0)),
        ]:
            mask = bank.satisfaction_mask(left_cols, right_cols, degree)
            bits = np.unpackbits(
                mask.words.view(np.uint8), bitorder="little", count=bank.size
            )
            for idx in range(bank.size):
                count = int(bank.n_rows[idx])
                cells = bank.cells[idx]
                rows = [
                    tuple(str(int(cells[r * 2 + c])) for c in range(2))
                    for r in range(count)
                ]
                team = team_from_rows(schema, rows)
                a = atom(
                    tuple(schema[c] for c in left_cols),
                    tuple(schema[c] for c in right_cols),
                    degree,
                )
                assert bool(bits[idx]) == satisfies(team, a)
                checks += 1
        assert checks == 4 * bank.size

    def test_row_and_value_masks(self, bank):
        bits = np.unpackbits(
            bank.row_mask(2).words.view(np.uint8), bitorder="little", count=bank.size
        )
        assert np.array_equal(bits.astype(bool), bank.n_rows <= 2)
        for k in range(bank.max_rows + 1):
            prefix = int(np.count_nonzero(bank.n_rows <= k))
            assert bank.row_mask(k).words.shape[0] == math.ceil(prefix / 64)
        bits = np.unpackbits(
            bank.value_mask(3).words.view(np.uint8), bitorder="little", count=bank.size
        )
        assert np.array_equal(bits.astype(bool), bank.n_values <= 3)

    def test_value_bounds_past_the_bank_share_one_mask(self, bank):
        # no bank team has more values than the bank's max_values
        cap = bank.value_mask(bank.max_values)
        for d in [*range(bank.max_values, bank.max_values + 8), 255, 256, 10**6]:
            assert bank.value_mask(d) is cap, d
        bits = np.unpackbits(cap.words.view(np.uint8), bitorder="little", count=bank.size)
        assert bits.all()

    def test_all_mask_covers_every_team(self, bank):
        mask = bank.all_mask()
        bits = np.unpackbits(mask.words.view(np.uint8), bitorder="little")
        assert bits[: bank.size].all()
        # zero-padded like every other mask, and no block has a gap
        assert not bits[bank.size :].any()
        assert mask.gaps == 0
        # the bank is sorted by row count, so every team is in the
        # max_rows prefix
        assert mask is bank.row_mask(bank.max_rows)


@pytest.fixture(scope="module")
def wide_bank():
    return TeamBank.build(3, 3, 5)


@pytest.fixture(scope="module")
def four_row_bank():
    return TeamBank.build(3, 4, 4)


class TestBankConflictWords:
    def column_tuples(self, n_vars):
        cols = range(n_vars)
        return [t for arity in (1, 2) for t in product(cols, repeat=arity)]

    def test_words_match_kernel(self, wide_bank, four_row_bank):
        # the 4-row bank has teams shorter than its widest, whose bits past
        # the row count are cleared after the compares
        for bank in (wide_bank, four_row_bank):
            tuples = self.column_tuples(bank.n_vars)
            checked = 0
            for left in tuples:
                for right in tuples:
                    if len(left) != len(right):
                        continue
                    expected = reference_conflict_words(
                        bank.cells, bank.n_rows, bank.n_vars, left, right
                    )
                    got = bank.conflict_words(left, right)
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected), (left, right)
                    checked += 1
            assert checked == 3 * 3 + 9 * 9

    def test_masks_match_cross_multiplied_budget(self, wide_bank):
        for left in self.column_tuples(wide_bank.n_vars):
            for right in self.column_tuples(wide_bank.n_vars):
                if len(left) != len(right):
                    continue
                for degree in KEYSTONE_DEGREES:
                    expected = reference_satisfaction_mask(wide_bank, left, right, degree)
                    got = wide_bank.satisfaction_mask(left, right, degree)
                    assert np.array_equal(got.words, expected.words), (left, right, degree)
                    assert got[1:] == expected[1:], (left, right, degree)

    def test_only_single_column_words_are_cached(self, wide_bank):
        for left in self.column_tuples(wide_bank.n_vars):
            for right in self.column_tuples(wide_bank.n_vars):
                if len(left) == len(right):
                    wide_bank.conflict_words(left, right)
        assert len(wide_bank._words) <= wide_bank.n_vars ** 2

    def test_mismatched_sides_refused(self, wide_bank):
        # zip would cut (0, 1), (1,) down to (0,), (1,): a wrong mask, not an error
        for sides in [((), ()), ((0, 1), (1,)), ((0,), (1, 0))]:
            with pytest.raises(ValueError, match="nonempty and of equal length"):
                wide_bank.conflict_words(*sides)
            with pytest.raises(ValueError, match="nonempty and of equal length"):
                wide_bank.satisfaction_mask(*sides, Fraction(0))


def pair_class(left, right):
    """An atom's column pairs as a set, the same for both side orders."""
    pairs = frozenset(zip(left, right))
    return min(pairs, frozenset((r, l) for l, r in pairs), key=sorted)


class TestMaskClasses:
    """One mask per degree and set of column pairs up to a side swap."""

    def test_class_shares_one_mask_equal_to_reference(self, wide_bank):
        cols = range(wide_bank.n_vars)
        tuples = [t for arity in (1, 2, 3) for t in product(cols, repeat=arity)]
        first = {}
        for left in tuples:
            for right in tuples:
                if len(left) != len(right):
                    continue
                for degree in KEYSTONE_DEGREES:
                    got = wide_bank.satisfaction_mask(left, right, degree)
                    seen = first.setdefault((degree, pair_class(left, right)), got)
                    assert got is seen, (left, right, degree)
                    expected = reference_satisfaction_mask(wide_bank, left, right, degree)
                    assert np.array_equal(got.words, expected.words), (left, right, degree)
                    assert got[1:] == expected[1:], (left, right, degree)
        # 2,457 atoms in 222 classes, one mask each
        assert len(first) == 222
        assert len({id(m) for m in first.values()}) == 222

    def test_keystone_atoms_build_81_masks(self, wide_bank):
        col = {v: i for i, v in enumerate(KEYSTONE_VARS)}
        atoms = keystone_atoms()
        masks = [
            wide_bank.satisfaction_mask(
                [col[v] for v in a.left], [col[v] for v in a.right], a.degree
            )
            for a in atoms
        ]
        assert len(atoms) == 270
        assert len({id(m) for m in masks}) == 81

    def test_masks_are_read_only(self, wide_bank):
        mask = wide_bank.satisfaction_mask((0,), (1,), Fraction(1, 4))
        assert not mask.words.flags.writeable
        with pytest.raises(ValueError):
            mask.words[0] = 0


class TestTransposedWords:
    def test_transpose_table_is_an_involution(self):
        table = kernel.transpose_table()
        assert table.dtype == np.uint16 and table.shape == (1 << 16,)
        assert np.array_equal(table.take(table), np.arange(1 << 16))
        for i in range(4):
            for j in range(4):
                assert table[1 << (i * 4 + j)] == 1 << (j * 4 + i)

    def test_mirrored_words_match_kernel(self, monkeypatch):
        bank = TeamBank.build(3, 4, 4)
        computed = []
        real = kernel.conflict_words

        def counted(*args):
            computed.append(args[-2:])
            return real(*args)

        monkeypatch.setattr(kernel, "conflict_words", counted)
        n = bank.n_vars
        for left in range(n):
            for right in range(left, n):
                bank._column_word(left, right)
        assert len(computed) == n * (n + 1) // 2
        for left in range(n):
            for right in range(left):
                expected = real(bank.cells, bank.n_rows, n, left, right)
                got = bank._column_word(left, right)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (left, right)
        # the swapped pairs were transposed, not computed again
        assert len(computed) == n * (n + 1) // 2


class TestLaneSelection:
    def test_current_lane_reported(self):
        assert IMPLEMENTATION == "python"
