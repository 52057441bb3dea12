"""Team semantics of approximate exclusion atoms.

A team T satisfies the exact atom ``x | y`` when no value tuple occurs both
as some row's x-projection and as some row's y-projection (the two rows may
be the same row).  T satisfies ``x |_p y`` when removing at most p * |T|
rows leaves a team satisfying the exact atom.  min_removal computes the
smallest number of rows whose removal achieves this; it is exact, never an
estimate.

satisfies_all checks a list of atoms against one team in one pass.  Before
it searches, it tests whether the set of left projections is disjoint from
the set of right projections.  That test is exact, not a heuristic: with no
shared projection there is no conflicting value, so min_removal is 0 and
the atom holds at every degree.  Only atoms whose sides do share a value
reach the removal search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Sequence

from .errors import CapacityError, EmptyTeamError
from .model import Atom, ONE, Row, Team

DEFAULT_CHOICE_CAP = 20


# ==========================================================================
# raw-row engine, shared with the enumeration oracle
# ==========================================================================

def conflict_map(
    rows: Sequence[Row], left_idx: Sequence[int], right_idx: Sequence[int]
) -> dict[tuple[str, ...], tuple[set[int], set[int]]]:
    """Conflicting value tuples over distinct rows given projection columns.

    Maps each value tuple occurring on both sides to (A, B): the sets of row
    positions taking it on the left and on the right.
    """
    left_at: dict[tuple[str, ...], set[int]] = {}
    right_at: dict[tuple[str, ...], set[int]] = {}
    for pos, row in enumerate(rows):
        left_at.setdefault(tuple(row[i] for i in left_idx), set()).add(pos)
        right_at.setdefault(tuple(row[i] for i in right_idx), set()).add(pos)
    return {
        value: (left_at[value], right_at[value])
        for value in left_at.keys() & right_at.keys()
    }


def min_removal_indexed(
    rows: Sequence[Row],
    left_idx: Sequence[int],
    right_idx: Sequence[int],
    choice_cap: int = DEFAULT_CHOICE_CAP,
) -> int:
    """Smallest number of rows to delete so no conflicting value remains.

    A removal set works iff it contains every row that takes some value on
    both sides (such a row conflicts with itself) and, for each conflicting
    value, swallows its left occurrences or its right occurrences entirely.
    Forced rows are removed first; the remaining per-value side choices are
    enumerated exhaustively, capped at choice_cap binary choices.
    """
    conflicts = conflict_map(rows, left_idx, right_idx)
    if not conflicts:
        return 0
    forced: set[int] = set()
    for a, b in conflicts.values():
        forced |= a & b
    choices: list[tuple[frozenset[int], frozenset[int]]] = []
    for a, b in conflicts.values():
        a_rest = frozenset(a - forced)
        b_rest = frozenset(b - forced)
        if a_rest and b_rest:
            choices.append((a_rest, b_rest))
    if not choices:
        return len(forced)
    if len(choices) > choice_cap:
        raise CapacityError(
            f"{len(choices)} interdependent removal choices exceed cap {choice_cap}"
        )
    best = len(rows)
    for picks in product(*choices):
        removed: set[int] = set()
        for side in picks:
            removed |= side
        best = min(best, len(removed))
    return len(forced) + best


# ==========================================================================
# public API over Team and Atom
# ==========================================================================

@dataclass(frozen=True)
class Conflict:
    """One conflicting value tuple with its witnessing rows."""

    value: tuple[str, ...]
    left_rows: tuple[Row, ...]
    right_rows: tuple[Row, ...]


@dataclass(frozen=True)
class ConflictReport:
    """All conflicts of a team against an atom's sides (degree ignored)."""

    atom: Atom
    conflicts: tuple[Conflict, ...]

    @property
    def satisfied(self) -> bool:
        """True when the exact atom holds, i.e. there are no conflicts."""
        return not self.conflicts

    def conflicting_values(self) -> frozenset[tuple[str, ...]]:
        return frozenset(c.value for c in self.conflicts)

    def witness_pairs(self) -> dict[tuple[str, ...], tuple[tuple[Row, ...], tuple[Row, ...]]]:
        return {c.value: (c.left_rows, c.right_rows) for c in self.conflicts}


def _columns(team: Team, atom: Atom) -> tuple[tuple[int, ...], tuple[int, ...], tuple[Row, ...]]:
    left_idx = tuple(team.column(v) for v in atom.left)
    right_idx = tuple(team.column(v) for v in atom.right)
    return left_idx, right_idx, tuple(team.rows)


def conflict_report(team: Team, atom: Atom) -> ConflictReport:
    """Every value tuple occurring as both an x-value and a y-value."""
    left_idx, right_idx, rows = _columns(team, atom)
    conflicts = conflict_map(rows, left_idx, right_idx)
    entries = tuple(
        Conflict(
            value,
            tuple(sorted(rows[i] for i in a)),
            tuple(sorted(rows[i] for i in b)),
        )
        for value, (a, b) in sorted(conflicts.items())
    )
    return ConflictReport(atom, entries)


def satisfies_exact(team: Team, atom: Atom) -> bool:
    """Exact exclusion of the atom's sides; the degree is not consulted."""
    left_idx, right_idx, rows = _columns(team, atom)
    return not conflict_map(rows, left_idx, right_idx)


def min_removal(team: Team, atom: Atom, choice_cap: int = DEFAULT_CHOICE_CAP) -> int:
    """Fewest rows to delete so the exact atom holds on the remainder."""
    left_idx, right_idx, rows = _columns(team, atom)
    return min_removal_indexed(rows, left_idx, right_idx, choice_cap)


def within_budget(removal: int, degree: Fraction, size: int) -> bool:
    """Whether removing `removal` of `size` rows fits the budget degree * size.

    Compared exactly by cross multiplication, never in floating point.
    """
    return removal * degree.denominator <= degree.numerator * size


def satisfies(team: Team, atom: Atom, choice_cap: int = DEFAULT_CHOICE_CAP) -> bool:
    """Whether the team satisfies the atom at its degree.

    Degree 1 holds vacuously; otherwise the removal count must fit the
    budget degree * |T|.
    """
    if atom.degree == ONE:
        return True
    return within_budget(min_removal(team, atom, choice_cap), atom.degree, team.size)


def min_degree(team: Team, atom: Atom, choice_cap: int = DEFAULT_CHOICE_CAP) -> Fraction:
    """Smallest degree at which the team satisfies the atom's sides.

    Undefined on the empty team (every degree works there).
    """
    if team.is_empty():
        raise EmptyTeamError("min_degree is undefined on the empty team")
    return Fraction(min_removal(team, atom, choice_cap), team.size)


def satisfies_all(team: Team, atoms: Sequence[Atom], choice_cap: int = DEFAULT_CHOICE_CAP) -> bool:
    """Whether the team satisfies every atom in the list, in one pass.

    Equal to ``all(satisfies(team, a, choice_cap) for a in atoms)``: the
    atoms are checked in order, degree-1 atoms are skipped, and the first
    failing atom ends the pass.  The column map and the rows are built once
    per team.  An atom whose set of left projections is disjoint from its
    right projections has no conflicting value, so its min_removal is 0 and
    it holds; only the other atoms run the exact removal search.
    """
    column = {v: i for i, v in enumerate(team.schema)}
    rows = tuple(team.rows)
    size = len(rows)
    for atom in atoms:
        degree = atom.degree
        if degree == ONE:
            continue
        try:
            left_idx = tuple([column[v] for v in atom.left])
            right_idx = tuple([column[v] for v in atom.right])
        except KeyError as exc:
            team.column(exc.args[0])  # raises UnknownVariableError
            raise
        left = set(map(itemgetter(*left_idx), rows))
        if left.isdisjoint(map(itemgetter(*right_idx), rows)):
            continue
        removal = min_removal_indexed(rows, left_idx, right_idx, choice_cap)
        if not within_budget(removal, degree, size):
            return False
    return True
