"""Atoms, teams, and degree handling."""

from fractions import Fraction

import pytest

from exclusion import Atom, Team, UnknownVariableError, atom
from exclusion.model import (
    as_degree,
    team_from_assignments,
    team_from_rows,
    tuple_projection,
)


class TestAsDegree:
    def test_accepts_fraction_int_and_strings(self):
        assert as_degree(Fraction(1, 4)) == Fraction(1, 4)
        assert as_degree(1) == Fraction(1)
        assert as_degree(0) == Fraction(0)
        assert as_degree("1/3") == Fraction(1, 3)
        assert as_degree("0.25") == Fraction(1, 4)

    def test_decimal_strings_are_exact(self):
        # 0.1 is not representable in binary floating point; the string
        # route must not detour through float
        assert as_degree("0.1") == Fraction(1, 10)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            as_degree(0.25)
        with pytest.raises(TypeError):
            as_degree(True)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_degree("3/2")
        with pytest.raises(ValueError):
            as_degree(-1)

    def test_rejects_malformed_strings(self):
        with pytest.raises(ValueError):
            as_degree("1/0")
        with pytest.raises(ValueError):
            as_degree("one third")


class TestTupleProjection:
    def test_one_based(self):
        assert tuple_projection(("x", "y", "z"), 1) == "x"
        assert tuple_projection(("x", "y", "z"), 3) == "z"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            tuple_projection(("x",), 0)
        with pytest.raises(IndexError):
            tuple_projection(("x",), 2)


class TestAtom:
    def test_basic_construction(self):
        a = Atom(("x", "y"), ("u", "v"), Fraction(1, 4))
        assert a.arity == 2
        assert a.degree == Fraction(1, 4)
        assert a.var_set() == frozenset({"x", "y", "u", "v"})

    def test_default_degree_is_zero(self):
        assert Atom(("x",), ("y",)).degree == Fraction(0)

    def test_rejects_mismatched_arity(self):
        with pytest.raises(ValueError):
            Atom(("x", "y"), ("u",))

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            Atom((), ())

    def test_repeated_variables_allowed(self):
        a = Atom(("x", "x"), ("x", "y"))
        assert a.arity == 2

    def test_is_contradictory(self):
        assert Atom(("x",), ("x",)).is_contradictory()
        assert Atom(("x", "y"), ("x", "y"), Fraction(1, 3)).is_contradictory()
        assert not Atom(("x",), ("x",), Fraction(1)).is_contradictory()
        assert not Atom(("x",), ("y",)).is_contradictory()

    def test_swapped(self):
        a = atom("x y", "u v", "1/4")
        assert a.swapped() == Atom(("u", "v"), ("x", "y"), Fraction(1, 4))
        assert a.swapped().swapped() == a

    def test_with_degree(self):
        a = atom("x", "y")
        assert a.with_degree("1/3").degree == Fraction(1, 3)
        assert a.with_degree("1/3").left == a.left

    def test_hashable_and_equal(self):
        assert atom("x", "y") == Atom(("x",), ("y",))
        assert len({atom("x", "y"), Atom(("x",), ("y",))}) == 1

    def test_str_forms(self):
        assert str(atom("x", "y")) == "x | y"
        assert str(atom("x1 x2", "y1 y2", "1/4")) == "x1 x2 |[1/4]| y1 y2"


class TestAtomConvenience:
    def test_atom_accepts_strings_and_iterables(self):
        assert atom("x y", "u v") == Atom(("x", "y"), ("u", "v"))
        assert atom(["x", "y"], ["u", "v"]) == Atom(("x", "y"), ("u", "v"))


class TestTeam:
    def test_construction_and_size(self):
        t = team_from_rows(("x", "y"), [("0", "0"), ("1", "2")])
        assert t.size == 2
        assert not t.is_empty()

    def test_rows_deduplicate(self):
        t = team_from_rows(("x",), [("0",), ("0",), ("1",)])
        assert t.size == 2

    def test_empty_team(self):
        t = team_from_rows(("x", "y"), [])
        assert t.is_empty()
        assert t.size == 0

    def test_schema_must_be_distinct(self):
        with pytest.raises(ValueError):
            team_from_rows(("x", "x"), [("0", "1")])

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            team_from_rows(("x", "y"), [("0",)])

    def test_cells_must_be_strings(self):
        with pytest.raises((TypeError, ValueError)):
            Team(("x",), frozenset({(0,)}))

    def test_column_lookup(self):
        t = team_from_rows(("x", "y"), [("0", "1")])
        assert t.column("y") == 1
        with pytest.raises(UnknownVariableError):
            t.column("z")

    def test_value_count(self):
        t = team_from_rows(("x", "y"), [("0", "0"), ("1", "2")])
        assert t.value_count() == 3

    def test_assignments_round_trip(self):
        t = team_from_rows(("x", "y"), [("0", "1"), ("2", "3")])
        maps = t.assignments()
        assert {m["x"] for m in maps} == {"0", "2"}
        again = team_from_assignments(maps, schema=("x", "y"))
        assert again == t

    def test_team_from_assignments_infers_schema(self):
        t = team_from_assignments([{"x": "0", "y": "1"}])
        assert t.schema == ("x", "y")

    def test_team_from_assignments_rejects_ragged_maps(self):
        with pytest.raises(ValueError):
            team_from_assignments([{"x": "0"}, {"y": "1"}])

    def test_subteam(self):
        rows = [("0", "0"), ("1", "2")]
        t = team_from_rows(("x", "y"), rows)
        sub = t.subteam([("1", "2")])
        assert sub.size == 1
        assert sub.schema == t.schema
