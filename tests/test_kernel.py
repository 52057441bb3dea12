"""Scan kernel: packed enumeration, conflict words, masked scans.

The kernels must agree with brute force, and the 65536-entry removal
table must agree with the reference removal engine.
"""

import math
import random

import numpy as np
import pytest

from exclusion import atom, kernel, satisfies
from exclusion.kernel import IMPLEMENTATION
from exclusion.model import team_from_rows
from exclusion.oracle import enumerate_row_sets
from exclusion.semantics import min_removal_indexed
from exclusion.sweep import TeamBank, pack_mask, removal_table


class TestPackedEnumeration:
    def test_matches_generator(self):
        cells, n_rows, n_values = kernel.enumerate_packed(2, 3, 6)
        reference = list(enumerate_row_sets(2, 3, 6, canonical=True))
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


def brute_conflict_word(rows, left_cols, right_cols):
    word = 0
    for i, r1 in enumerate(rows):
        for j, r2 in enumerate(rows):
            if all(r1[a] == r2[b] for a, b in zip(left_cols, right_cols)):
                word |= 1 << (i * 4 + j)
    return word


class TestConflictWords:
    def test_against_brute_force(self):
        cells, n_rows, _ = kernel.enumerate_packed(2, 3, 6)
        reference = list(enumerate_row_sets(2, 3, 6, canonical=True))
        for left, right in [((0,), (1,)), ((0, 1), (1, 0)), ((1,), (1,))]:
            left_a = np.asarray(left, dtype=np.int64)
            right_a = np.asarray(right, dtype=np.int64)
            words = kernel.conflict_words(cells, n_rows, 2, left_a, right_a)
            for w, rows in zip(words, reference):
                assert int(w) == brute_conflict_word(rows, left, right)

    def test_padding_rows_never_conflict(self):
        cells, n_rows, _ = kernel.enumerate_packed(1, 2, 3)
        left = np.asarray([0], dtype=np.int64)
        right = np.asarray([0], dtype=np.int64)
        words = kernel.conflict_words(cells, n_rows, 1, left, right)
        for w, count in zip(words, n_rows):
            # bits touching rows >= count must be clear
            for i in range(4):
                for j in range(4):
                    if i >= count or j >= count:
                        assert not (int(w) >> (i * 4 + j)) & 1


class TestRemovalTable:
    def test_exhaustive_against_reference(self):
        table = removal_table()
        cells, n_rows, _ = kernel.enumerate_packed(2, 4, 8)
        reference = list(enumerate_row_sets(2, 4, 8, canonical=True))
        rng = random.Random(4)
        sample = rng.sample(range(len(reference)), 400)
        for idx in sample:
            rows = [tuple(str(c) for c in row) for row in reference[idx]]
            for left, right in [((0,), (1,)), ((0, 1), (1, 0))]:
                word = brute_conflict_word(reference[idx], left, right)
                expected = min_removal_indexed(rows, left, right)
                assert int(table[word]) == expected

    def test_empty_word_needs_no_removal(self):
        assert int(removal_table()[0]) == 0


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
        assert short.shape[0] == 2
        assert kernel.any_counterexample(pack_mask(late), ones, none, ones, ones)
        assert not kernel.any_counterexample(pack_mask(late), ones, none, short, ones)

    def test_pack_mask_round_trip(self):
        rng = random.Random(13)
        flags = np.asarray([rng.randrange(2) for _ in range(130)], dtype=bool)
        words = pack_mask(flags)
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
        from fractions import Fraction

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
                mask.view(np.uint8), bitorder="little", count=bank.size
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
            bank.row_mask(2).view(np.uint8), bitorder="little", count=bank.size
        )
        assert np.array_equal(bits.astype(bool), bank.n_rows <= 2)
        for k in range(bank.max_rows + 1):
            prefix = int(np.count_nonzero(bank.n_rows <= k))
            assert bank.row_mask(k).shape[0] == math.ceil(prefix / 64)
        bits = np.unpackbits(
            bank.value_mask(3).view(np.uint8), bitorder="little", count=bank.size
        )
        assert np.array_equal(bits.astype(bool), bank.n_values <= 3)

    def test_all_mask_covers_every_team(self, bank):
        bits = np.unpackbits(
            bank.all_mask().view(np.uint8), bitorder="little", count=bank.size
        )
        assert bits.all()


class TestLaneSelection:
    def test_current_lane_reported(self):
        assert IMPLEMENTATION == "python"
