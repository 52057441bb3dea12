"""Core data model: variable tuples, approximate exclusion atoms, teams.

An atom ``x |_p y`` pairs two equal-length variable tuples with a rational
degree p in [0, 1].  Degree 0 is the exact atom (no value may occur both as
an x-value and as a y-value anywhere in the team); degree p relaxes this to
"some subteam of at most p * |T| rows can be removed to make it exact".

A team is a finite set of assignments over a fixed schema of variables.
Rows are value tuples aligned with the schema.  Values are opaque strings
compared by equality only; degrees are exact rationals, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

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


@dataclass(frozen=True)
class Atom:
    """Approximate exclusion atom ``left |_degree right``."""

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
        rearrange, slice or join the sides of checked atoms."""
        self = object.__new__(cls)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "degree", degree)
        return self

    @property
    def arity(self) -> int:
        return len(self.left)

    def __str__(self) -> str:
        bar = "|" if self.degree == ZERO else f"|[{self.degree}]|"
        return f"{' '.join(self.left)} {bar} {' '.join(self.right)}"

    def swapped(self) -> "Atom":
        """The atom with its sides exchanged, same degree."""
        return Atom(self.right, self.left, self.degree)


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

    def column(self, var: str) -> int:
        """Schema index of a variable, as `column_index` gives it; a known
        variable is found without that call, since the removal search
        looks up every name of its atom here."""
        try:
            return self.schema.index(var)
        except ValueError:
            return column_index(self.schema, var)  # raises UnknownVariableError

    def value_count(self) -> int:
        """Number of distinct values appearing in any cell."""
        return len({cell for row in self.rows for cell in row})


def column_index(schema: tuple[str, ...], var: str) -> int:
    """Index of a variable in a schema; UnknownVariableError names a
    variable the schema lacks."""
    try:
        return schema.index(var)
    except ValueError:
        from .errors import UnknownVariableError

        raise UnknownVariableError(f"variable {var!r} not in schema {schema}")


def team_from_rows(schema: Iterable[str], rows: Iterable[Iterable[str]]) -> Team:
    """Convenience constructor; deduplicates rows silently."""
    return Team(tuple(schema), frozenset(tuple(r) for r in rows))

