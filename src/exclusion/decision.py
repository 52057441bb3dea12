"""Decision procedure for implication between exclusion atoms.

Given assumptions sigma and a goal x|_p y, decides whether the goal is
derivable from sigma in the calculus.  The checks run in a fixed order and
the first one that fires wins, so results and witnesses are deterministic:

1. p = 1 goals hold outright.
2. degrees in [1/2, 1) are rejected as unsupported.
3. an assumption with the goal's sides (either orientation) and degree
   at most p settles it.
4. a contradictory assumption of degree below 1 derives everything.
5. a goal with equal sides fails; one fresh row refutes it.
6. otherwise an assumption of degree at most p must reach the goal
   structurally.  The goal is analysed once: its pair set, and, when a
   premise first gets as far as the cover test, the bitmask index of each
   side.  Then the assumptions are tried in input order, each against three
   tests: its pair set embeds into the goal's, its swapped pair set does,
   or one arity switch covers its non-diagonal pairs through the goal's
   left side, else its right side.

Steps 3, 4 and step 6's degree filter share one pass over sigma, which
returns at the first membership, remembers the first contradictory
assumption (of any degree) and collects the assumptions of degree at most
p (cross-multiplied integers); step 6 walks those in input order.  So each
check keeps the precedence and the tie-breaks of the list above.

A positive verdict carries a witness from which a derivation can be
synthesized; a negative one carries a counterexample plan.  Witnesses and
plans both name themselves through `kind`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from . import counterexample as cx
from .counterexample import min_gap_degree
from .errors import UnsupportedDegreeError
from .model import Atom, ONE

__all__ = [
    "VacuousDegreeWitness",
    "MembershipWitness",
    "ContradictionWitness",
    "SubsetWitness",
    "CoverWitness",
    "DecisionWitness",
    "Verdict",
    "decide",
    "implies",
    "min_gap_degree",
]

Pair = tuple[str, str]
# per goal side, each variable's bitmask of the goal positions it partners
Squares = tuple[tuple[str, dict[str, int]], ...]


def pair_set(atom: Atom) -> frozenset[Pair]:
    """The set of aligned component pairs S(x | y) = {(x_i, y_i)}.

    Atoms with equal pair sets are equivalent: the structural rules
    (append, delete a duplicate block, swap blocks) grow or keep this set.
    """
    return frozenset(zip(atom.left, atom.right))


@dataclass(frozen=True)
class CorrespondenceSets:
    """Partner sets of an atom's variables, keyed by variable name.

    left[a] holds every right-side partner of the left-side variable a; a
    variable occurring at several positions gets the union of its partners.
    right[b] is symmetric for right-side variables.
    """

    left: dict[str, frozenset[str]]
    right: dict[str, frozenset[str]]


def correspondence_sets(atom: Atom) -> CorrespondenceSets:
    left: dict[str, set[str]] = {}
    right: dict[str, set[str]] = {}
    for a, b in zip(atom.left, atom.right):
        left.setdefault(a, set()).add(b)
        right.setdefault(b, set()).add(a)
    return CorrespondenceSets(
        {v: frozenset(s) for v, s in left.items()},
        {v: frozenset(s) for v, s in right.items()},
    )


def goal_squares(goal: Atom) -> Squares:
    """Per goal side, a bitmask index of the partner-set squares.

    The square at a position of a side is the partner set of the goal
    variable there.  The index maps each variable v to the bitmask whose
    bit i is set when v lies in the square at position i.
    """
    corr = correspondence_sets(goal)
    left, right = {}, {}
    for i, (a, b) in enumerate(zip(goal.left, goal.right)):
        for v in corr.left[a]:
            left[v] = left.get(v, 0) | 1 << i
        for v in corr.right[b]:
            right[v] = right.get(v, 0) | 1 << i
    return ("left", left), ("right", right)


def a6_cover(
    src: Atom, squares: Squares
) -> tuple[str, tuple[tuple[Pair, int], ...]] | None:
    """Test whether one application of the arity-switching rule suffices.

    src derives the goal through a single switch (plus structural steps and
    at most one side swap) iff for some goal side d, every non-diagonal pair
    (a, b) of src fits inside the partner-set square of one position of d:
    a and b both partner the goal variable at that position.  Diagonal
    pairs ride along in the shared suffix and need no cover.

    squares is goal_squares(goal): the squares holding both a and b are the
    set bits of the AND of their masks.  Returns (side, anchor) for the
    first cover found, trying the left side then the right, and gives up a
    side at its first uncovered pair; anchor maps each non-diagonal pair of
    src, in first-occurrence order, to its smallest covering goal position
    (0-based), the lowest set bit.
    """
    for side, masks in squares:
        anchor: dict[Pair, int] = {}
        for pair in zip(src.left, src.right):
            a, b = pair
            if a == b or pair in anchor:
                continue
            shared = masks.get(a, 0) & masks.get(b, 0)
            if not shared:
                break
            anchor[pair] = (shared & -shared).bit_length() - 1
        else:
            if not anchor:
                # fully diagonal src is contradictory; the switch rule needs
                # a non-diagonal pair, so no single application exists
                return None
            return side, tuple(anchor.items())
    return None


@dataclass(frozen=True)
class VacuousDegreeWitness:
    """The goal has degree 1, which every team satisfies."""

    kind: ClassVar[str] = "vacuous-degree"


@dataclass(frozen=True)
class MembershipWitness:
    """An assumption is the goal up to orientation, at degree <= p."""

    kind: ClassVar[str] = "membership"

    atom: Atom
    index: int
    swapped: bool


@dataclass(frozen=True)
class ContradictionWitness:
    """An assumption with equal sides and degree < 1 derives anything."""

    kind: ClassVar[str] = "contradiction"

    atom: Atom
    index: int


@dataclass(frozen=True)
class SubsetWitness:
    """An assumption's pair set embeds into the goal's, possibly swapped."""

    kind: ClassVar[str] = "subset"

    atom: Atom
    index: int
    swapped: bool


@dataclass(frozen=True)
class CoverWitness:
    """An assumption reaches the goal through one arity switch.

    side ("left" or "right") is the goal side whose partner sets cover the
    assumption's non-diagonal pairs; anchor maps each such pair to its
    smallest covering goal position.  The anchored goal-side variables
    become the fresh tuple of the switch.
    """

    kind: ClassVar[str] = "a6-cover"

    atom: Atom
    index: int
    side: str
    anchor: tuple[tuple[Pair, int], ...]


DecisionWitness = (
    VacuousDegreeWitness
    | MembershipWitness
    | ContradictionWitness
    | SubsetWitness
    | CoverWitness
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision, with its supporting evidence."""

    holds: bool
    witness: DecisionWitness | None = None
    plan: cx.CounterexamplePlan | None = None

    def __bool__(self) -> bool:
        return self.holds


def decide(sigma: Sequence[Atom], goal: Atom) -> Verdict:
    """Decide whether sigma derives the goal, with witness or plan."""
    sigma = tuple(sigma)
    p = goal.degree

    if p == ONE:
        return Verdict(True, witness=VacuousDegreeWitness())
    if 2 * p >= 1:
        raise UnsupportedDegreeError(
            f"goal degrees in [1/2, 1) are not supported, got {p}"
        )

    goal_left, goal_right = goal.left, goal.right
    p_num, p_den = p.numerator, p.denominator
    usable: list[int] = []
    contradiction = None
    for index, a in enumerate(sigma):
        left, right, degree = a.left, a.right, a.degree
        if left == right and contradiction is None and degree.numerator < degree.denominator:
            contradiction = index
        if degree.numerator * p_den <= p_num * degree.denominator:
            if left == goal_left and right == goal_right:
                return Verdict(True, witness=MembershipWitness(a, index, False))
            if left == goal_right and right == goal_left:
                return Verdict(True, witness=MembershipWitness(a, index, True))
            usable.append(index)

    if contradiction is not None:
        return Verdict(True, witness=ContradictionWitness(sigma[contradiction], contradiction))

    if goal_left == goal_right:
        return Verdict(False, plan=cx.plan(sigma, goal))

    goal_pairs = pair_set(goal)
    squares = None
    for index in usable:
        a = sigma[index]
        if goal_pairs.issuperset(zip(a.left, a.right)):
            return Verdict(True, witness=SubsetWitness(a, index, False))
        if goal_pairs.issuperset(zip(a.right, a.left)):
            return Verdict(True, witness=SubsetWitness(a, index, True))
        if squares is None:
            squares = goal_squares(goal)
        cover = a6_cover(a, squares)
        if cover is not None:
            return Verdict(True, witness=CoverWitness(a, index, *cover))

    return Verdict(False, plan=cx.plan(sigma, goal))


def implies(sigma: Sequence[Atom], goal: Atom) -> bool:
    """Whether sigma derives the goal; certificate details discarded."""
    return decide(sigma, goal).holds
