"""Core data model: variable tuples, approximate exclusion atoms, teams.

An atom ``x |_p y`` pairs two equal-length variable tuples with a rational
degree p in [0, 1].  Degree 0 is the exact atom (no value may occur both as
an x-value and as a y-value anywhere in the team); degree p relaxes this to
"some subteam of at most p * |T| rows can be removed to make it exact".

A team is a finite set of assignments over a fixed schema of variables.
Rows are value tuples aligned with the schema.  Values are opaque strings
compared by equality only; degrees are exact rationals, never floats.

The goal's generic violating pair (`generic_pair`, `conflicts`) and the
schema order (`schema_order`) are here too, so that the decision
procedure, the certificate checker and the oracle read them without
importing the counterexample planner.  This module imports only `errors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import UnknownVariableError

VarTuple = tuple[str, ...]
Row = tuple[str, ...]

ZERO = Fraction(0)


def as_degree(value: Fraction | int | str) -> Fraction:
    """Coerce to an exact rational degree in [0, 1].

    Floats are rejected: degrees must be exact.
    """
    if isinstance(value, float):
        raise TypeError("degrees must be exact rationals, not floats")
    if isinstance(value, bool):
        raise TypeError("degrees must be rationals, not booleans")
    if type(value) is Fraction:
        degree = value
    else:
        try:
            degree = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational degree: {value!r}") from exc
    # a Fraction's denominator is positive, so this is 0 <= degree <= 1
    if not 0 <= degree.numerator <= degree.denominator:
        raise ValueError(f"degree out of range [0, 1]: {degree}")
    return degree


def _check_var_tuple(vars: VarTuple, label: str) -> None:
    if not isinstance(vars, tuple) or len(vars) == 0:
        raise ValueError(f"{label} side must be a nonempty tuple of variables")
    for v in vars:
        if not isinstance(v, str) or not v:
            raise ValueError(f"{label} side holds a non-variable entry: {v!r}")


@dataclass(frozen=True, slots=True)
class Atom:
    """Approximate exclusion atom ``left |_degree right``.

    Its fields live in slots, with no instance `__dict__`; equality,
    hashing, repr, `fields()`, `replace` and pickling are the frozen
    dataclass's."""

    left: VarTuple
    right: VarTuple
    degree: Fraction = ZERO

    def __post_init__(self) -> None:
        _check_var_tuple(self.left, "left")
        _check_var_tuple(self.right, "right")
        if len(self.left) != len(self.right):
            raise ValueError(
                f"side arities differ: {len(self.left)} vs {len(self.right)}"
            )
        object.__setattr__(self, "degree", as_degree(self.degree))

    @classmethod
    def _unchecked(cls, left: VarTuple, right: VarTuple, degree: Fraction) -> "Atom":
        """An atom built without `__post_init__`: the caller has checked
        everything it checks, and degree is an exact Fraction.  The callers
        are the parser, which checks the text it reads, and the derivation
        planner (`calculus._Builder`, `end_constant_form`), whose sides
        rearrange, slice or join the sides of checked atoms.  Each field is
        set by its slot's member descriptor (`_SET_LEFT`, ...) in one call,
        where `object.__setattr__` would first look the slot up by name."""
        self = object.__new__(cls)
        _SET_LEFT(self, left)
        _SET_RIGHT(self, right)
        _SET_DEGREE(self, degree)
        return self

    @property
    def arity(self) -> int:
        return len(self.left)

    def __str__(self) -> str:
        bar = "|" if self.degree == ZERO else f"|[{self.degree}]|"
        return f"{' '.join(self.left)} {bar} {' '.join(self.right)}"


# the setters of the slots' member descriptors, for `Atom._unchecked`
_SET_LEFT = Atom.__dict__["left"].__set__
_SET_RIGHT = Atom.__dict__["right"].__set__
_SET_DEGREE = Atom.__dict__["degree"].__set__


def _side(value: str | Iterable[str]) -> VarTuple:
    if isinstance(value, str):
        return tuple(value.split())
    return tuple(value)


def atom(
    left: str | Iterable[str],
    right: str | Iterable[str],
    degree: Fraction | int | str = ZERO,
) -> Atom:
    """Convenience constructor; strings split on whitespace into variables."""
    return Atom(_side(left), _side(right), as_degree(degree))


@dataclass(frozen=True)
class Team:
    """A finite set of assignments over an ordered schema of variables.

    ``rows`` are schema-aligned value tuples.  Duplicate rows collapse: a
    team is a set, so satisfaction can only consult which assignments are
    present, never how often.
    """

    schema: tuple[str, ...]
    rows: frozenset[Row] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.schema, tuple):
            raise ValueError("schema must be a tuple of variable names")
        for v in self.schema:
            if not isinstance(v, str) or not v:
                raise ValueError(f"schema holds a non-variable entry: {v!r}")
        if len(set(self.schema)) != len(self.schema):
            raise ValueError("schema variables must be distinct")
        object.__setattr__(self, "rows", frozenset(self.rows))
        width = len(self.schema)
        for row in self.rows:
            if not isinstance(row, tuple) or len(row) != width:
                raise ValueError(f"row {row!r} does not match schema width {width}")
            for cell in row:
                if not isinstance(cell, str):
                    raise ValueError(f"team values must be strings, got {cell!r}")

    @classmethod
    def _unchecked(cls, schema: tuple[str, ...], rows: frozenset[Row]) -> "Team":
        """A team built without `__post_init__`: the caller has checked the
        schema names and every row's width, and its rows are tuples of str.
        The callers are the CSV parser and `counterexample.build_team`,
        whose schema lists the distinct variables of checked atoms and
        whose rows it fills with one string value per schema variable."""
        self = object.__new__(cls)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", rows)
        return self

    @property
    def size(self) -> int:
        return len(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def value_count(self) -> int:
        """Number of distinct values appearing in any cell."""
        return len({cell for row in self.rows for cell in row})


def column_index(schema: tuple[str, ...], var: str) -> int:
    """Index of a variable in a schema; UnknownVariableError names a
    variable the schema lacks."""
    try:
        return schema.index(var)
    except ValueError:
        raise UnknownVariableError(f"variable {var!r} not in schema {schema}")


def atom_columns(schema: tuple[str, ...], atom: Atom) -> tuple[tuple[int, ...], ...]:
    """The column indexes of the atom's left side and of its right side;
    `column_index` reports an unknown name, the left side's first."""
    try:
        return tuple(map(schema.index, atom.left)), tuple(map(schema.index, atom.right))
    except ValueError:
        for v in atom.left + atom.right:
            column_index(schema, v)
        raise


def team_from_rows(schema: Iterable[str], rows: Iterable[Iterable[str]]) -> Team:
    """Convenience constructor; deduplicates rows silently."""
    return Team(tuple(schema), frozenset(tuple(r) for r in rows))


# per row s, t of the generic pair: the class of each cell that is merged
GenericPair = tuple[dict[str, int], dict[str, int]]


def generic_pair(goal: Atom) -> GenericPair:
    """The goal's generic violating pair of rows s and t.

    Cells (s, x_i) and (t, y_i) are merged at every position i, closed
    under transitivity; every other cell is fresh.  A class is named by
    its smallest position, so s maps each left variable and t each right
    variable to the class of a position where it occurs.  The pair maps
    into every pair of rows that violates the goal, a row paired with
    itself included.
    """
    s: dict[str, int] = {}
    t: dict[str, int] = {}
    for i, (x, y) in enumerate(zip(goal.left, goal.right)):
        a, b = s.get(x, i), t.get(y, i)
        lo, hi = (a, b) if a < b else (b, a)
        if lo != hi != i:
            # position i joins two classes: the later one takes the
            # earlier one's name
            for row in (s, t):
                for v, c in row.items():
                    if c == hi:
                        row[v] = lo
        s[x] = t[y] = lo
    return s, t


def conflicts(atom: Atom, pair: GenericPair) -> bool:
    """Whether the atom is violated on the generic pair.

    Tries the row pairs (s, t), (t, s), (s, s) and (t, t): the first row's
    left cells must equal the second row's right cells.  A cell missing
    from a row's map is fresh; it is named by its variable within its row
    (get's default) and equals no cell of the other row (None).  The first
    position rules out most row pairs before whole tuples are built.
    """
    s, t = pair
    left, right = atom.left, atom.right
    x, y = left[0], right[0]
    sx, tx = s.get(x, x), t.get(x, x)
    if sx == t.get(y) and tuple(map(s.get, left, left)) == tuple(map(t.get, right)):
        return True
    if tx == s.get(y) and tuple(map(t.get, left, left)) == tuple(map(s.get, right)):
        return True
    if sx == s.get(y, y) and tuple(map(s.get, left, left)) == tuple(map(s.get, right, right)):
        return True
    return tx == t.get(y, y) and tuple(map(t.get, left, left)) == tuple(map(t.get, right, right))


# Premise lists this long are counted before the scan.  Below it the count
# costs more than the scan it can cut short.  On a 2-core Xeon (Python
# 3.11), 0-2 premises over 3 variables took 1.2-3.3 us a call with the count
# and 0.6-2.4 us without; over 3 or 5 variables the count's early stop won
# from 5 to 8 premises on, and over 60 variables from about 20.
SCHEMA_COUNT_PREMISES = 6


def schema_order(
    sigma: Sequence[Atom], goal: Atom
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Schema order: goal left, new goal right, then assumption-only vars.

    Returns the whole schema and its assumption-only tail.  A list of
    SCHEMA_COUNT_PREMISES premises or more has its variables counted
    first, so the scan stops at the premise completing the schema; a
    shorter list is scanned premise by premise without a count.
    """
    schema = dict.fromkeys(goal.left + goal.right)
    goal_width = len(schema)
    total = None
    if len(sigma) >= SCHEMA_COUNT_PREMISES:
        total = len(set(schema).union(*[a.left for a in sigma], *[a.right for a in sigma]))
    for atom in sigma:
        if len(schema) == total:
            break
        schema.update(dict.fromkeys(atom.left + atom.right))
    order = tuple(schema)
    return order, order[goal_width:]
