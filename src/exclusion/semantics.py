"""Team semantics of approximate exclusion atoms.

A team T satisfies the exact atom ``x | y`` when no value tuple occurs both
as some row's x-projection and as some row's y-projection (the two rows may
be the same row).  T satisfies ``x |_p y`` when removing at most p * |T|
rows leaves a team satisfying the exact atom.  min_removal computes the
smallest number of rows whose removal achieves this; it is exact, never an
estimate.

min_removal_indexed is the one removal search; every satisfaction
question reduces to its count.  It reads a team by columns: one sequence
of cells per schema variable, rows at the same position in each.  It
first reads the first position of each side alone, that is two columns.
Two rows conflict only if the left row's first value equals the right
row's first value, so this filter is exact, not a heuristic.  The right
rows whose first value some left row takes are found first; when there
are none there is no conflicting value, the count is 0 and the atom
holds at every degree.  Then the left rows whose first value one of
those right rows takes are found.  Both passes are C-level (`map`,
`compress`).  Only these rows can conflict, and only their positions are
projected, one `itemgetter` per column, so any other column is read only
there; every row taking a conflicting value is among them, so the
conflict map built from them is the whole table's.  At arity 1 the first
position is the whole projection.  Teams of at most UNFILTERED_ROWS rows
skip the filter and project every row whole, since there its extra
passes cost more than the rows they skip.  The search then removes every
row that conflicts with itself (a forced row).  Each conflicting value
left is a choice: remove its left occurrences or its right ones.
Choices that share a row depend on each other; the classes of that
relation are independent conflict components.  No row lies in two
components, so the rows removed for different components are disjoint
and their minimum counts add up to the exact minimum.  Each component is
searched exhaustively, and CHOICE_CAP bounds the size of one component,
not of the whole table.

Callers hand the search columns.  `excl eval` reads them from the CSV
(`parsing.read_team_csv`) and never builds rows.  Callers holding rows
transpose them once with columns_of: min_removal per call, satisfies_all
per team, for its value sets too, and the oracle per enumerated team.

satisfies_all, which checks a NO certificate's team against every
premise, lifts the first-position filter from rows to the team.  It
builds the set of values each column takes once per team.  A premise
with a position whose left and right value sets are disjoint is skipped:
no row's left value there equals any row's right value, so no row pair
conflicts and the removal is 0 at every degree.  The filter is exact for
the same reason as the row filter.  Only the premises it leaves are
resolved to column indexes (`model.atom_columns`) and searched, so on a
few-row team over many variables, such as a 1000-premise NO's, nearly
every premise is skipped before any index or projection is built.  A
premise's names are checked against the schema as a set, the left side
before the right, before any value set is looked up, so an unknown
variable raises UnknownVariableError for the same name `satisfies`
would, even in a premise the filter would skip.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Collection, Sequence

from .errors import CapacityError, EmptyTeamError
from .model import Atom, Team, atom_columns

# most interdependent removal choices searched in one conflict component
CHOICE_CAP = 20

# teams of at most this many rows are projected whole without the
# first-position filter, whose passes cost more than they save there
UNFILTERED_ROWS = 4

# the row positions taking one value on the left and on the right
Choice = tuple[set[int], set[int]]


# ==========================================================================
# the column engine, shared with the enumeration oracle
# ==========================================================================

def columns_of(rows: Collection[Sequence], width: int) -> list[Sequence]:
    """The rows' columns, as the search reads a team; no rows give `width`
    empty columns."""
    return list(zip(*rows)) if rows else [()] * width


def _unions(sides: list[list[int]]) -> list[int]:
    """Every union of one side per choice, each side a bitmask of rows."""
    unions = [0]
    for a, b in sides:
        unions = [m | a for m in unions] + [m | b for m in unions]
    return unions


def _component_removal(choices: list[Choice]) -> int:
    """Fewest rows covering one side of every choice, by trying every pick.

    The picks of the first half of the choices and of the second half are
    listed apart and every pair is tried, so 2^c picks need only two lists
    of about 2^(c/2) masks.
    """
    if len(choices) == 1:
        return min(map(len, choices[0]))
    bit: dict[int, int] = {}
    sides: list[list[int]] = []
    for choice in choices:
        masks = [0, 0]
        for side, rows in enumerate(choice):
            for row in rows:
                masks[side] |= bit.setdefault(row, 1 << len(bit))
        sides.append(masks)
    half = len(sides) // 2
    return min(
        (m | n).bit_count() for m in _unions(sides[:half]) for n in _unions(sides[half:])
    )


def _components(choices: list[Choice]) -> list[list[Choice]]:
    """The classes of choices linked by shared rows, by union-find.

    A class's root is its latest choice, so each parent index exceeds its
    child's and one backward pass resolves every root.
    """
    parent = list(range(len(choices)))
    owner: dict[int, int] = {}
    for i, (a, b) in enumerate(choices):
        for row in a | b:
            j = owner.setdefault(row, i)
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            parent[j] = i
    classes: dict[int, list[Choice]] = {}
    for i in reversed(range(len(choices))):
        parent[i] = root = parent[parent[i]]
        classes.setdefault(root, []).append(choices[i])
    return list(classes.values())


def _picker(at: Sequence[int]):
    """The function from a column to the tuple of its cells at `at`;
    `itemgetter` of one index gives the cell itself, not a 1-tuple."""
    if len(at) == 1:
        (pos,) = at
        return lambda column: (column[pos],)
    return itemgetter(*at)


def min_removal_indexed(
    columns: Sequence[Sequence[str]],
    left_idx: Sequence[int],
    right_idx: Sequence[int],
) -> int:
    """Smallest number of rows to delete so no conflicting value remains.

    The team is given by columns: `columns[i][pos]` is the cell of row
    `pos` in column i, and the indexes name columns.  A removal set works
    iff it contains every row that takes some value on both sides and,
    for each conflicting value, swallows its left occurrences or its
    right occurrences entirely; the module docstring describes the
    search.  CapacityError is raised when one conflict component holds
    more than CHOICE_CAP choices.
    """
    left_first, right_first = columns[left_idx[0]], columns[right_idx[0]]
    positions = range(len(left_first))
    # itemgetter of several indexes gives a side's columns, of one its column
    left_get, right_get = itemgetter(*left_idx), itemgetter(*right_idx)
    # a value is a cell at arity 1 and a tuple of cells above it; both
    # sides have one arity
    whole = len(left_idx) > 1
    if len(positions) <= UNFILTERED_ROWS:
        lefts, rights = left_get(columns), right_get(columns)
        if whole:
            lefts, rights = list(zip(*lefts)), list(zip(*rights))
        shared = set(lefts)
        if shared.isdisjoint(rights):
            return 0
        left_at = right_at = positions
    else:
        right_at = list(compress(positions, map(set(left_first).__contains__, right_first)))
        if not right_at:
            return 0
        shared_firsts = set(map(right_first.__getitem__, right_at))
        left_at = list(compress(positions, map(shared_firsts.__contains__, left_first)))
        left_pick, right_pick = _picker(left_at), _picker(right_at)
        if whole:
            lefts = list(zip(*map(left_pick, left_get(columns))))
            rights = list(zip(*map(right_pick, right_get(columns))))
        else:
            lefts, rights = left_pick(left_first), right_pick(right_first)
        shared = set(lefts)
    shared.intersection_update(rights)
    conflicts: dict[object, Choice] = {value: (set(), set()) for value in shared}
    for pos, value in zip(left_at, lefts):
        if value in shared:
            conflicts[value][0].add(pos)
    for pos, value in zip(right_at, rights):
        if value in shared:
            conflicts[value][1].add(pos)
    forced: set[int] = set()
    for a, b in conflicts.values():
        forced |= a & b
    choices = list(conflicts.values())
    if forced:
        choices = [(a - forced, b - forced) for a, b in choices]
        choices = [(a, b) for a, b in choices if a and b]
    if not choices:
        return len(forced)
    if len(choices) == 1:
        return len(forced) + min(map(len, choices[0]))
    components = _components(choices)
    largest = max(map(len, components))
    if largest > CHOICE_CAP:
        raise CapacityError(
            f"a conflict component of {largest} interdependent removal choices"
            f" exceeds cap {CHOICE_CAP}"
        )
    return len(forced) + sum(map(_component_removal, components))


# ==========================================================================
# public API over Team and Atom
# ==========================================================================

def min_removal(team: Team, atom: Atom) -> int:
    """Fewest rows to delete so the exact atom holds on the remainder; the
    team's rows are transposed for the search."""
    left_idx, right_idx = atom_columns(team.schema, atom)
    return min_removal_indexed(columns_of(team.rows, len(team.schema)), left_idx, right_idx)


def within_budget(removal: int, degree: Fraction, size: int) -> bool:
    """Whether removing `removal` of `size` rows fits the budget degree * size.

    Compared exactly by cross multiplication, never in floating point.
    """
    return removal * degree.denominator <= degree.numerator * size


def satisfies(team: Team, atom: Atom) -> bool:
    """Whether the team satisfies the atom at its degree.

    Degree 1 holds vacuously; otherwise the removal count must fit the
    budget degree * |T|.
    """
    if atom.degree.numerator == atom.degree.denominator:
        return True
    return within_budget(min_removal(team, atom), atom.degree, team.size)


def min_degree(team: Team, atom: Atom) -> Fraction:
    """Smallest degree at which the team satisfies the atom's sides.

    Undefined on the empty team (every degree works there).
    """
    if team.is_empty():
        raise EmptyTeamError("min_degree is undefined on the empty team")
    return Fraction(min_removal(team, atom), team.size)


def satisfies_all(team: Team, atoms: Sequence[Atom]) -> bool:
    """Whether the team satisfies every atom in the list, in one pass.

    Equal to ``all(satisfies(team, a) for a in atoms)``: the atoms are
    checked in order, degree-1 atoms are skipped, the first failing atom
    ends the pass, and an unknown variable raises UnknownVariableError
    for the name `satisfies` names.  The value sets and the schema's name
    set are built at the first atom to check, so a list without one costs
    no pass over the rows; the module docstring describes the filter.
    """
    schema = team.schema
    value_set = None
    for atom in atoms:
        degree = atom.degree
        if degree.numerator == degree.denominator:  # degree 1 holds vacuously
            continue
        if value_set is None:  # at the first atom to check, once per team
            rows = team.rows
            columns = columns_of(rows, len(schema))
            value_set = dict(zip(schema, map(frozenset, columns))).__getitem__
            known = frozenset(schema)
        left, right = atom.left, atom.right
        if not (known.issuperset(left) and known.issuperset(right)):
            atom_columns(schema, atom)  # raises UnknownVariableError
        if any(map(frozenset.isdisjoint, map(value_set, left), map(value_set, right))):
            continue
        removal = min_removal_indexed(columns, *atom_columns(schema, atom))
        if not within_budget(removal, degree, len(rows)):
            return False
    return True
