"""Satisfaction and minimum-removal semantics.

min_removal is cross-checked against an independent brute-force oracle that
tries every subset of rows, so the two implementations share no code path.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from exclusion import (
    CapacityError,
    EmptyTeamError,
    atom,
    min_degree,
    min_removal,
    satisfies,
)
from exclusion.model import team_from_rows
from exclusion.semantics import (
    conflict_report,
    min_removal_indexed,
    satisfies_all,
    satisfies_exact,
)

# worked two-column example: the self-conflicting first row is the only
# conflict, so one removal restores exact exclusion
PAIR_TEAM = team_from_rows(("x", "y"), [("0", "0"), ("1", "2")])

# worked four-column example: two rows conflict with themselves on the
# (x, u) vs (y, v) projections and both must go
QUAD_TEAM = team_from_rows(
    ("x", "u", "y", "v"),
    [("0", "1", "0", "1"), ("0", "2", "0", "2"), ("1", "2", "2", "1")],
)


def brute_min_removal(team, a):
    """Smallest removal count by trying every subset of rows."""
    rows = sorted(team.rows)
    for size in range(len(rows) + 1):
        for keep in combinations(rows, len(rows) - size):
            if satisfies_exact(team.subteam(keep), a):
                return size
    raise AssertionError("removing every row always satisfies the atom")


class TestWorkedExamples:
    def test_pair_team_min_removal(self):
        a = atom("x", "y", "1/2")
        assert min_removal(PAIR_TEAM, a) == 1
        assert satisfies(PAIR_TEAM, a)
        assert min_degree(PAIR_TEAM, a) == Fraction(1, 2)

    def test_quad_team_falsifies_appended_atom(self):
        a = atom("x u", "y v", "1/2")
        assert min_removal(QUAD_TEAM, a) == 2
        assert not satisfies(QUAD_TEAM, a)
        assert min_degree(QUAD_TEAM, a) == Fraction(2, 3)


class TestSatisfiesExact:
    def test_no_shared_values(self):
        t = team_from_rows(("x", "y"), [("1", "2"), ("3", "4")])
        assert satisfies_exact(t, atom("x", "y"))

    def test_cross_row_conflict(self):
        t = team_from_rows(("x", "y"), [("1", "2"), ("3", "1")])
        assert not satisfies_exact(t, atom("x", "y"))

    def test_self_conflict(self):
        t = team_from_rows(("x", "y"), [("1", "1")])
        assert not satisfies_exact(t, atom("x", "y"))

    def test_degree_is_ignored(self):
        t = team_from_rows(("x", "y"), [("1", "1")])
        assert not satisfies_exact(t, atom("x", "y", "1/2"))

    def test_tuple_projections(self):
        # (1, 2) occurs as an xu-value and as a yv-value of another row
        t = team_from_rows(
            ("x", "u", "y", "v"), [("1", "2", "5", "6"), ("7", "8", "1", "2")]
        )
        assert not satisfies_exact(t, atom("x u", "y v"))
        # component-wise overlap without tuple overlap is fine
        t2 = team_from_rows(
            ("x", "u", "y", "v"), [("1", "2", "1", "3"), ("4", "5", "6", "2")]
        )
        assert satisfies_exact(t2, atom("x u", "y v"))

    def test_empty_team(self):
        t = team_from_rows(("x", "y"), [])
        assert satisfies_exact(t, atom("x", "y"))
        assert satisfies_exact(t, atom("x", "x"))


class TestSatisfies:
    def test_budget_is_floor_of_fraction(self):
        # 3 rows at degree 1/2 allow one removal, not two
        t = team_from_rows(("x", "y"), [("1", "1"), ("2", "2"), ("3", "4")])
        assert min_removal(t, atom("x", "y")) == 2
        assert not satisfies(t, atom("x", "y", "1/2"))
        assert satisfies(t, atom("x", "y", "2/3"))

    def test_degree_one_always_holds(self):
        t = team_from_rows(("x",), [("1",)])
        assert satisfies(t, atom("x", "x", 1))

    def test_contradictory_atom_on_nonempty_team(self):
        t = team_from_rows(("x",), [("1",), ("2",)])
        assert not satisfies(t, atom("x", "x"))
        assert not satisfies(t, atom("x", "x", "1/3"))

    def test_empty_team_satisfies_everything(self):
        t = team_from_rows(("x", "y"), [])
        assert satisfies(t, atom("x", "x"))
        assert satisfies(t, atom("x", "y", "1/4"))

    def test_satisfies_all(self):
        t = team_from_rows(("x", "y"), [("1", "2")])
        assert satisfies_all(t, [atom("x", "y"), atom("y", "x")])
        assert not satisfies_all(t, [atom("x", "y"), atom("x", "x")])
        assert satisfies_all(t, [])


class TestMinDegree:
    def test_matches_removal_ratio(self):
        assert min_degree(QUAD_TEAM, atom("x u", "y v")) == Fraction(2, 3)
        assert min_degree(PAIR_TEAM, atom("x", "y")) == Fraction(1, 2)

    def test_zero_when_already_exact(self):
        t = team_from_rows(("x", "y"), [("1", "2")])
        assert min_degree(t, atom("x", "y")) == 0

    def test_empty_team_rejected(self):
        t = team_from_rows(("x", "y"), [])
        with pytest.raises(EmptyTeamError):
            min_degree(t, atom("x", "y"))

    def test_degree_on_atom_not_consulted(self):
        assert min_degree(PAIR_TEAM, atom("x", "y", "1/4")) == Fraction(1, 2)


class TestConflictReport:
    def test_satisfied_report(self):
        t = team_from_rows(("x", "y"), [("1", "2")])
        report = conflict_report(t, atom("x", "y"))
        assert report.satisfied
        assert report.conflicts == ()

    def test_conflict_details(self):
        report = conflict_report(PAIR_TEAM, atom("x", "y"))
        assert not report.satisfied
        assert report.conflicting_values() == frozenset({("0",)})
        pairs = report.witness_pairs()
        assert pairs[("0",)] == ((("0", "0"),), (("0", "0"),))

    def test_deterministic_order(self):
        t = team_from_rows(("x", "y"), [("1", "2"), ("2", "1")])
        r1 = conflict_report(t, atom("x", "y"))
        r2 = conflict_report(t, atom("x", "y"))
        assert r1 == r2
        assert [c.value for c in r1.conflicts] == [("1",), ("2",)]


class TestMinRemovalBruteForce:
    def test_randomized_agreement(self):
        rng = random.Random(7)
        schema = ("x", "y", "z")
        atoms = [
            atom("x", "y"),
            atom("x", "x"),
            atom("x y", "y z"),
            atom("x z", "z x"),
            atom("y", "z"),
        ]
        for _ in range(300):
            n_rows = rng.randrange(0, 6)
            rows = [
                tuple(str(rng.randrange(3)) for _ in schema) for _ in range(n_rows)
            ]
            t = team_from_rows(schema, rows)
            for a in atoms:
                assert min_removal(t, a) == brute_min_removal(t, a)

    def test_wide_value_spread(self):
        rng = random.Random(8)
        for _ in range(60):
            rows = [
                tuple(str(rng.randrange(8)) for _ in range(2)) for _ in range(5)
            ]
            t = team_from_rows(("x", "y"), rows)
            a = atom("x", "y")
            assert min_removal(t, a) == brute_min_removal(t, a)


class TestChoiceCap:
    def test_interdependent_choices_exceeding_cap(self):
        # two values each removable from either side: two binary choices
        t = team_from_rows(("x", "y"), [("1", "2"), ("2", "1")])
        with pytest.raises(CapacityError):
            min_removal(t, atom("x", "y"), choice_cap=1)
        assert min_removal(t, atom("x", "y"), choice_cap=2) == 1

    def test_forced_rows_do_not_count_against_cap(self):
        t = team_from_rows(("x", "y"), [("1", "1"), ("2", "2")])
        assert min_removal(t, atom("x", "y"), choice_cap=0) == 2


class TestIndexedEngine:
    def test_matches_team_level_api(self):
        rows = sorted(QUAD_TEAM.rows)
        left = (0, 1)
        right = (2, 3)
        assert min_removal_indexed(rows, left, right) == 2

    def test_duplicate_column_indices(self):
        # the same physical column may serve both tuple positions
        rows = [("1", "1"), ("2", "3")]
        assert min_removal_indexed(rows, (0, 0), (1, 1)) == 1
