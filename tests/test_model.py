"""Atoms, teams, and degree handling."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from exclusion import Atom, Team, UnknownVariableError, atom
from exclusion.model import as_degree, atom_columns, column_index, team_from_rows


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

    def test_fraction_range_is_checked(self):
        with pytest.raises(ValueError):
            as_degree(Fraction(3, 2))
        with pytest.raises(ValueError):
            as_degree(Fraction(-1, 4))
        assert as_degree(Fraction(1)) == 1
        assert as_degree(Fraction(0)) == 0

    def test_returns_an_exact_fraction(self):
        class Degree(Fraction):
            pass

        assert as_degree(Fraction(1, 4)) == Fraction(1, 4)
        assert type(as_degree(Fraction(1, 4))) is Fraction
        assert type(as_degree(Degree(1, 4))) is Fraction
        assert as_degree(Degree(1, 4)) == Fraction(1, 4)

    def test_rejects_malformed_strings(self):
        with pytest.raises(ValueError):
            as_degree("1/0")
        with pytest.raises(ValueError):
            as_degree("one third")


class TestAtom:
    def test_basic_construction(self):
        a = Atom(("x", "y"), ("u", "v"), Fraction(1, 4))
        assert a.arity == 2
        assert a.degree == Fraction(1, 4)

    def test_default_degree_is_zero(self):
        assert Atom(("x",), ("y",)).degree == Fraction(0)

    def test_rejects_mismatched_arity(self):
        with pytest.raises(ValueError):
            Atom(("x", "y"), ("u",))

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            Atom((), ())

    def test_rejects_non_variable_entries(self):
        for bad in (("x", ""), ("x", 1), (None, "y")):
            with pytest.raises(ValueError, match="non-variable entry"):
                Atom(bad, ("u", "v"))
        with pytest.raises(ValueError, match="right side holds a non-variable entry: ''"):
            Atom(("u", "v"), ("y", ""))

    def test_repeated_variables_allowed(self):
        a = Atom(("x", "x"), ("x", "y"))
        assert a.arity == 2

    def test_hashable_and_equal(self):
        assert atom("x", "y") == Atom(("x",), ("y",))
        assert len({atom("x", "y"), Atom(("x",), ("y",))}) == 1

    def test_str_forms(self):
        assert str(atom("x", "y")) == "x | y"
        assert str(atom("x1 x2", "y1 y2", "1/4")) == "x1 x2 |[1/4]| y1 y2"


class TestAtomRecord:
    """The frozen dataclass contract, which the slotted `Atom` and its
    descriptor-filled `_unchecked` keep."""

    CASES = [(("x",), ("y",), Fraction(0)), (("u", "v"), ("v", "w"), Fraction(1, 4))]

    @pytest.mark.parametrize("left, right, degree", CASES)
    def test_unchecked_atom_is_the_checked_one(self, left, right, degree):
        fast, checked = Atom._unchecked(left, right, degree), Atom(left, right, degree)
        assert fast == checked and hash(fast) == hash(checked)
        assert repr(fast) == repr(checked) and str(fast) == str(checked)
        assert (fast.left, fast.right, fast.degree) == (left, right, degree)

    def test_fields_refuse_assignment(self):
        for a in (Atom(("x",), ("y",)), Atom._unchecked(("x",), ("y",), Fraction(1, 3))):
            for name in ("left", "right", "degree"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(a, name, ("z",))
            # slots leave no instance dict; on Python 3.11 the frozen
            # dataclass's __setattr__ reports a new name as a TypeError
            assert not hasattr(a, "__dict__")
            with pytest.raises((AttributeError, TypeError)):
                a.extra = 1

    def test_copies_round_trip(self):
        a = Atom._unchecked(("u", "v"), ("v", "w"), Fraction(1, 4))
        for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert copied == a and type(copied) is Atom
        raised = dataclasses.replace(a, degree=Fraction(1, 2))
        assert raised == Atom(a.left, a.right, Fraction(1, 2))
        with pytest.raises(ValueError, match="side arities differ"):
            dataclasses.replace(a, right=("w",))

    def test_fields_keep_their_order(self):
        assert [f.name for f in dataclasses.fields(Atom)] == ["left", "right", "degree"]


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
        schema = ("x", "y")
        assert column_index(schema, "y") == 1
        with pytest.raises(UnknownVariableError, match="'z'"):
            column_index(schema, "z")
        # both sides at once, each name resolved as column_index resolves it
        a = atom("y x y", "x x y")
        expected = (
            tuple(column_index(schema, v) for v in a.left),
            tuple(column_index(schema, v) for v in a.right),
        )
        assert atom_columns(schema, a) == expected == ((1, 0, 1), (0, 0, 1))
        # an unknown left name is reported before an unknown right name
        with pytest.raises(UnknownVariableError, match="'u'") as left_first:
            atom_columns(schema, atom("x u", "w y"))
        with pytest.raises(UnknownVariableError) as direct:
            column_index(schema, "u")
        assert str(left_first.value) == str(direct.value)
        with pytest.raises(UnknownVariableError, match="'w'"):
            atom_columns(schema, atom("x y", "w y"))

    def test_value_count(self):
        t = team_from_rows(("x", "y"), [("0", "0"), ("1", "2")])
        assert t.value_count() == 3
