"""Satisfaction and minimum-removal semantics.

min_removal is cross-checked against an independent brute-force oracle that
tries every subset of rows, so the two implementations share no code path.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusion import (
    CapacityError,
    EmptyTeamError,
    UnknownVariableError,
    atom,
    min_degree,
    min_removal,
    satisfies,
)
from exclusion.model import Team, team_from_rows
from exclusion import semantics
from exclusion.semantics import (
    min_removal_indexed,
    satisfies_all,
    within_budget,
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


def satisfies_exact(team, a):
    """Exact exclusion of the atom's sides; the degree is not consulted.
    No row's left projection equals any row's right projection."""
    left = [team.schema.index(v) for v in a.left]
    right = [team.schema.index(v) for v in a.right]
    lefts = {tuple(row[i] for i in left) for row in team.rows}
    return not any(tuple(row[i] for i in right) in lefts for row in team.rows)


def brute_min_removal(team, a):
    """Smallest removal count by trying every subset of rows."""
    rows = sorted(team.rows)
    for size in range(len(rows) + 1):
        for keep in combinations(rows, len(rows) - size):
            if satisfies_exact(Team(team.schema, frozenset(keep)), a):
                return size
    raise AssertionError("removing every row always satisfies the atom")


def columns_of(rows, width=0):
    """The rows' columns, as min_removal_indexed reads a team; no rows
    give `width` empty columns."""
    return list(zip(*rows)) if rows else [()] * width


def reference_conflict_map(rows, left_idx, right_idx):
    """Each value tuple both sides take, mapped to the row positions taking
    it on the left and on the right, built from every row's value tuples."""
    left_at, right_at = {}, {}
    for pos, row in enumerate(rows):
        left_at.setdefault(tuple(row[i] for i in left_idx), set()).add(pos)
        right_at.setdefault(tuple(row[i] for i in right_idx), set()).add(pos)
    return {v: (left_at[v], right_at[v]) for v in left_at.keys() & right_at.keys()}


def reference_min_removal_indexed(rows, left_idx, right_idx, choice_cap=20):
    """The whole-table search min_removal_indexed replaced: forced rows
    first, then every side choice of every value tried together."""
    conflicts = reference_conflict_map(rows, left_idx, right_idx)
    if not conflicts:
        return 0
    forced = set()
    for a, b in conflicts.values():
        forced |= a & b
    choices = []
    for a, b in conflicts.values():
        a_rest = frozenset(a - forced)
        b_rest = frozenset(b - forced)
        if a_rest and b_rest:
            choices.append((a_rest, b_rest))
    if not choices:
        return len(forced)
    if len(choices) > choice_cap:
        raise CapacityError(f"{len(choices)} choices exceed cap {choice_cap}")
    best = len(rows)
    for picks in product(*choices):
        removed = set()
        for side in picks:
            removed |= side
        best = min(best, len(removed))
    return len(forced) + best


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
    def test_interdependent_choices_exceeding_cap(self, monkeypatch):
        # two values each removable from either side: two binary choices
        t = team_from_rows(("x", "y"), [("1", "2"), ("2", "1")])
        columns = columns_of(sorted(t.rows))
        monkeypatch.setattr(semantics, "CHOICE_CAP", 1)
        with pytest.raises(CapacityError):
            min_removal(t, atom("x", "y"))
        with pytest.raises(CapacityError):
            min_removal_indexed(columns, (0,), (1,))
        monkeypatch.setattr(semantics, "CHOICE_CAP", 2)
        assert min_removal(t, atom("x", "y")) == 1
        assert min_removal_indexed(columns, (0,), (1,)) == 1

    def test_cap_applies_per_component(self, monkeypatch):
        # two components of two choices each: {1, 2} and {3, 4} share no row
        t = team_from_rows(
            ("x", "y"), [("1", "2"), ("2", "1"), ("3", "4"), ("4", "3")]
        )
        monkeypatch.setattr(semantics, "CHOICE_CAP", 2)
        assert min_removal(t, atom("x", "y")) == 2
        monkeypatch.setattr(semantics, "CHOICE_CAP", 1)
        with pytest.raises(CapacityError, match="component of 2 "):
            min_removal(t, atom("x", "y"))

    def test_forced_rows_do_not_count_against_cap(self, monkeypatch):
        t = team_from_rows(("x", "y"), [("1", "1"), ("2", "2")])
        monkeypatch.setattr(semantics, "CHOICE_CAP", 0)
        assert min_removal(t, atom("x", "y")) == 2


class TestIndexedEngine:
    def test_matches_team_level_api(self):
        rows = sorted(QUAD_TEAM.rows)
        left = (0, 1)
        right = (2, 3)
        assert min_removal_indexed(columns_of(rows), left, right) == 2

    def test_duplicate_column_indices(self):
        # the same physical column may serve both tuple positions
        rows = [("1", "1"), ("2", "3")]
        assert min_removal_indexed(columns_of(rows), (0, 0), (1, 1)) == 1

    def test_no_rows(self):
        for columns in ([(), ()], [[], []], {0: [], 1: ()}):
            assert min_removal_indexed(columns, (0,), (1,)) == 0
            assert min_removal_indexed(columns, (0, 1), (1, 0)) == 0

    def test_at_most_four_rows_skip_the_filter(self):
        # one of each: a row conflicting with itself, a value both sides
        # take on different rows, a row with a fresh value on each side
        rows = [("s", "s"), ("a", "b"), ("c", "a"), ("d", "e")]
        for n in range(len(rows) + 1):
            assert min_removal_indexed(columns_of(rows[:n], 2), (0,), (1,)) == [
                0, 1, 1, 2, 2
            ][n]
        assert min_removal_indexed(columns_of(rows), (0, 1), (1, 0)) == 1

    def test_one_candidate_position(self):
        # past four rows, the filter keeps one position on each side:
        # itemgetter of one index gives a cell, which is not a 1-tuple, and
        # values of two characters tell a cell from a tuple of its letters
        rows = [("s1", "t1", "s1", "t1")] + [(f"x{i}", "1", f"y{i}", "1") for i in range(6)]
        assert min_removal_indexed(columns_of(rows), (0,), (2,)) == 1
        assert min_removal_indexed(columns_of(rows), (0, 1), (2, 3)) == 1
        rows[0] = ("s1", "t1", "s1", "u1")  # first positions agree, tuples do not
        assert min_removal_indexed(columns_of(rows), (0, 1), (2, 3)) == 0
        # one right position against two left ones, and the other way round
        rows = [("a1", "p1", "z1", "q1"), ("a1", "q1", "b1", "p1")]
        rows += [(f"x{i}", "1", f"y{i}", "1") for i in range(6)] + [("c1", "r1", "a1", "p1")]
        assert min_removal_indexed(columns_of(rows), (0, 1), (2, 3)) == 1
        assert min_removal_indexed(columns_of(rows), (2, 3), (0, 1)) == 1


@st.composite
def rows_and_sides(draw):
    """Up to 14 distinct rows over up to four columns with values from a
    small pool, so that conflicting values chain through shared rows, and
    two index lists of one arity that may repeat a column."""
    width = draw(st.integers(1, 4))
    pool = st.sampled_from("0123"[: draw(st.integers(1, 4))])
    rows = sorted(set(draw(st.lists(st.tuples(*[pool] * width), max_size=14))))
    arity = draw(st.integers(1, 3))
    column = st.integers(0, width - 1)
    left = draw(st.lists(column, min_size=arity, max_size=arity))
    right = draw(st.lists(column, min_size=arity, max_size=arity))
    return rows, tuple(left), tuple(right)


class TestComponentEquivalence:
    """The per-component search equals the whole-table search."""

    @settings(max_examples=1000, deadline=None)
    @given(rows_and_sides())
    def test_matches_whole_product(self, case):
        rows, left, right = case
        columns = columns_of(rows, 1 + max(left + right))
        assert min_removal_indexed(columns, left, right) == reference_min_removal_indexed(
            rows, left, right
        )

    def test_chained_values_form_one_component(self, monkeypatch):
        # 1 -> 2 -> 3 -> 1 through shared rows: one component, three choices
        columns = columns_of([("1", "2"), ("2", "3"), ("3", "1")])
        assert min_removal_indexed(columns, (0,), (1,)) == 2
        monkeypatch.setattr(semantics, "CHOICE_CAP", 2)
        with pytest.raises(CapacityError, match="component of 3 "):
            min_removal_indexed(columns, (0,), (1,))


@st.composite
def first_position_tables(draw):
    """Up to 10 distinct rows over a left block of columns and a right
    block of the same arity (1 to 3), so that the first-position filter of
    min_removal_indexed runs past four rows.  The first positions and the
    later positions of the two blocks draw from one shared pool or from
    pools of their own, each independently: first positions collide while
    whole tuples do not, later positions collide while first ones do not,
    both, or neither.  Some rows copy their left block to the right, so
    they conflict with themselves whenever the sides share values."""
    arity = draw(st.integers(1, 3))
    first_shared = draw(st.booleans())
    rest_shared = draw(st.booleans())
    values = st.sampled_from("012")

    def block(side):
        cells = []
        for pos in range(arity):
            shared = first_shared if pos == 0 else rest_shared
            cells.append(("" if shared else side) + draw(values))
        return tuple(cells)

    rows = set()
    for _ in range(draw(st.integers(0, 10))):
        left = block("l")
        right = left if first_shared and rest_shared and draw(st.booleans()) else block("r")
        rows.add(left + right)
    order = draw(st.permutations(range(2 * arity)))  # columns in any order
    rows = [tuple(row[i] for i in order) for row in sorted(rows)]
    place = {column: i for i, column in enumerate(order)}
    left_idx = tuple(place[i] for i in range(arity))
    right_idx = tuple(place[i] for i in range(arity, 2 * arity))
    return rows, left_idx, right_idx


class TestFirstPositionFilter:
    """The filtered search equals the brute-force removal count."""

    @staticmethod
    def brute(rows, left_idx, right_idx):
        schema = tuple(f"c{i}" for i in range(len(left_idx) + len(right_idx)))
        team = team_from_rows(schema, rows)
        goal = atom([schema[i] for i in left_idx], [schema[i] for i in right_idx])
        return brute_min_removal(team, goal)

    @settings(max_examples=400, deadline=None)
    @given(first_position_tables())
    def test_matches_brute_force(self, case):
        rows, left, right = case
        columns = columns_of(rows, 2 * len(left))
        assert min_removal_indexed(columns, left, right) == self.brute(rows, left, right)

    @settings(max_examples=200, deadline=None)
    @given(first_position_tables())
    def test_team_path_matches_brute_force(self, case):
        # min_removal transposes the team's rows and searches their columns
        rows, left, right = case
        schema = tuple(f"c{i}" for i in range(2 * len(left)))
        team = team_from_rows(schema, rows)
        goal = atom([schema[i] for i in left], [schema[i] for i in right])
        assert min_removal(team, goal) == self.brute(rows, left, right)

    def test_first_positions_collide_whole_tuples_do_not(self):
        rows = [("a", "1", "a", "2"), ("b", "1", "a", "3"), ("a", "4", "b", "5")]
        rows += [(f"x{i}", "1", f"y{i}", "1") for i in range(5)]
        assert min_removal_indexed(columns_of(rows), (0, 1), (2, 3)) == 0

    def test_later_positions_collide_first_do_not(self):
        rows = [(f"x{i}", "1", f"y{i}", "1") for i in range(8)]
        assert min_removal_indexed(columns_of(rows), (0, 1), (2, 3)) == 0
        # the same rows conflict everywhere on the second position alone
        assert min_removal_indexed(columns_of(rows), (1,), (3,)) == 8

    def test_self_conflicting_rows_among_many(self):
        rows = [("s", "t", "s", "t"), ("a", "b", "c", "d")]
        rows += [(f"x{i}", "1", f"y{i}", "1") for i in range(6)]
        rows += [("c", "d", "e", "f")]  # takes ("c", "d") on the left
        assert min_removal_indexed(columns_of(rows), (0, 1), (2, 3)) == 2

    def test_empty_team(self):
        for arity in (1, 2, 3):
            idx = tuple(range(arity))
            assert min_removal_indexed(columns_of([], arity), idx, idx) == 0
            columns = columns_of((), 2 * arity)
            assert min_removal_indexed(columns, idx, tuple(range(arity, 2 * arity))) == 0


class TestWithinBudget:
    def test_cross_multiplied_comparison(self):
        # 3 rows at degree 1/3 allow exactly one removal
        assert within_budget(1, Fraction(1, 3), 3)
        assert not within_budget(2, Fraction(1, 3), 3)
        assert within_budget(0, Fraction(0), 5)
        assert not within_budget(1, Fraction(0), 5)
        assert within_budget(0, Fraction(1, 4), 0)


# teams over up to four columns with values from a three-value pool, so
# that projections collide and the removal search runs
COLUMNS = ("a", "b", "c", "d")
DEGREES = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1))


@st.composite
def team_and_atoms(draw):
    width = draw(st.integers(1, len(COLUMNS)))
    schema = COLUMNS[:width]
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from("012") for _ in schema]), max_size=6
        )
    )
    # now and then names outside the schema, so unknown variables are met
    names = st.sampled_from(schema if draw(st.integers(0, 3)) else COLUMNS + ("z",))

    @st.composite
    def one_atom(draw):
        arity = draw(st.integers(1, 3))
        left = draw(st.lists(names, min_size=arity, max_size=arity))
        right = draw(st.lists(names, min_size=arity, max_size=arity))
        return atom(left, right, draw(st.sampled_from(DEGREES)))

    return team_from_rows(schema, rows), draw(st.lists(one_atom(), max_size=5))


def outcome(check, *args):
    """The check's answer, or the message of the UnknownVariableError it raised."""
    try:
        return check(*args)
    except UnknownVariableError as exc:
        return str(exc)


class TestSatisfiesAllEquivalence:
    """satisfies_all and satisfies agree, atom by atom, with the brute-force
    removal count, so the shared search is checked against code it does
    not use."""

    @settings(max_examples=500, deadline=None)
    @given(team_and_atoms())
    def test_matches_per_atom_conjunction(self, case):
        team, atoms = case
        # atom by atom, in order: the first failure or raised error decides
        expected = True
        for a in atoms:
            expected = outcome(satisfies, team, a)
            if expected is not True:
                break
        assert outcome(satisfies_all, team, atoms) == expected
        for a in atoms:
            if a.degree != 1 and set(a.left + a.right) <= set(team.schema):
                budget = within_budget(brute_min_removal(team, a), a.degree, team.size)
                assert satisfies(team, a) == budget

    def test_empty_team(self):
        t = team_from_rows(("x", "y"), [])
        assert satisfies_all(t, [atom("x", "x"), atom("x", "y", "1/4")])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_wide_team_matches_per_atom_satisfies(self, data):
        # 40 or more columns and more than four rows, so the filter runs on
        # long sides; constant rows conflict with themselves under every atom
        width = data.draw(st.integers(40, 48))
        schema = tuple(f"v{i}" for i in range(width))
        cell = st.sampled_from("01")
        rows = data.draw(st.lists(st.tuples(*[cell] * width), min_size=3, max_size=7))
        rows += [("0",) * width] * data.draw(st.integers(0, 1))
        team = team_from_rows(schema, rows)
        names = st.sampled_from(schema)

        @st.composite
        def one_atom(draw):
            arity = draw(st.integers(1, width))
            left = draw(st.lists(names, min_size=arity, max_size=arity))
            right = draw(st.lists(names, min_size=arity, max_size=arity))
            return atom(left, right, draw(st.sampled_from(DEGREES)))

        atoms = data.draw(st.lists(one_atom(), max_size=6))
        per_atom = [satisfies(team, a) for a in atoms]
        assert satisfies_all(team, atoms) == all(per_atom)
        for a, holds in zip(atoms, per_atom):
            if a.degree != 1:
                assert holds == within_budget(brute_min_removal(team, a), a.degree, team.size)

    def test_arity_one_projections_are_scalars(self):
        t = team_from_rows(("x", "y"), [("1", "2"), ("2", "3")])
        # the value 2 is an x-value and a y-value: one removal is needed
        assert not satisfies_all(t, [atom("x", "y")])
        assert satisfies_all(t, [atom("x", "y", "1/2")])
        assert satisfies_all(t, [atom("y", "x", "1/2")])

    def test_disjoint_sides_need_no_search(self):
        t = team_from_rows(("x", "y"), [("1", "2"), ("3", "4")])
        assert satisfies_all(t, [atom("x", "y"), atom("x y", "y x")])

    def test_unknown_variable_raises(self):
        t = team_from_rows(("x", "y"), [("1", "2"), ("2", "1")])
        # a known left side with an unknown right side, and both unknown
        for premise, name in [(atom("x", "z"), "z"), (atom("x y", "y z"), "z"),
                              (atom("w x", "y z"), "w")]:
            with pytest.raises(UnknownVariableError, match=f"'{name}' not in schema") as alone:
                satisfies(t, premise)
            with pytest.raises(UnknownVariableError) as listed:
                satisfies_all(t, [premise])
            assert str(listed.value) == str(alone.value)

    def test_unknown_variable_raises_where_sides_share_no_value(self):
        # x and y share no value, so the first position alone shows that
        # no row pair conflicts; every name is still resolved, left first
        t = team_from_rows(("x", "y"), [("1", "2"), ("3", "4")])
        with pytest.raises(UnknownVariableError, match="'w' not in schema"):
            satisfies_all(t, [atom("x w", "y z")])

    @pytest.mark.parametrize(
        "left, right, name",
        [
            ("x y", "y w", "w"),  # only a right side's last name is unknown
            ("x y w", "y z x", "w"),  # 'z' comes earlier, but on the right
        ],
    )
    def test_unknown_name_in_a_premise_the_filter_would_skip(self, left, right, name):
        # the first position alone would skip the premise; its names are
        # still checked, and the one named is the one satisfies names
        t = team_from_rows(("x", "y"), [("1", "2"), ("3", "4")])
        premise = atom(left, right)
        with pytest.raises(UnknownVariableError, match=f"'{name}' not in schema"):
            satisfies(t, premise)
        with pytest.raises(UnknownVariableError, match=f"'{name}' not in schema"):
            satisfies_all(t, [premise])

    def test_unknown_variable_ignored_at_degree_one(self):
        t = team_from_rows(("x", "y"), [("1", "2")])
        assert satisfies_all(t, [atom("x", "z", 1), atom("x", "y")])

    def test_over_cap_premise_raises(self, monkeypatch):
        # two interdependent choices against a cap of one
        t = team_from_rows(("x", "y"), [("1", "2"), ("2", "1")])
        monkeypatch.setattr(semantics, "CHOICE_CAP", 1)
        with pytest.raises(CapacityError):
            satisfies_all(t, [atom("x", "y")])
        with pytest.raises(CapacityError):
            satisfies_all(t, [atom("x", "x", 1), atom("x", "y")])

    def test_earlier_failure_ends_the_pass_before_the_cap(self, monkeypatch):
        t = team_from_rows(("x", "y"), [("1", "2"), ("2", "1")])
        monkeypatch.setattr(semantics, "CHOICE_CAP", 1)
        # x | x fails on any nonempty team, so the over-cap atom is never searched
        assert not satisfies_all(t, [atom("x", "x"), atom("x", "y")])
