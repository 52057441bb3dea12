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
   structurally.  The goal is analysed once: its pair set and the partner
   sets of each side.  Then the assumptions are tried in input order, each
   against three tests: its pair set embeds into the goal's, its swapped
   pair set does, or one arity switch covers its non-diagonal pairs through
   the goal's left side, else its right side.

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
# per goal side, the partner set of the variable at each goal position
Squares = tuple[tuple[str, tuple[frozenset[str], ...]], ...]


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
    """Per goal side, the partner set of the variable at each position."""
    corr = correspondence_sets(goal)
    return (
        ("left", tuple(corr.left[v] for v in goal.left)),
        ("right", tuple(corr.right[v] for v in goal.right)),
    )


def a6_cover(
    src: Atom, squares: Squares
) -> tuple[str, tuple[tuple[Pair, int], ...]] | None:
    """Test whether one application of the arity-switching rule suffices.

    src derives the goal through a single switch (plus structural steps and
    at most one side swap) iff for some goal side d, every non-diagonal pair
    (a, b) of src fits inside the partner-set square of one position of d:
    a and b both partner the goal variable at that position.  Diagonal
    pairs ride along in the shared suffix and need no cover.

    squares is goal_squares(goal).  Returns (side, anchor) for the first
    cover found, trying the left side then the right; anchor maps each
    non-diagonal pair of src, in first-occurrence order, to its smallest
    covering goal position (0-based).
    """
    plain = [p for p in dict.fromkeys(zip(src.left, src.right)) if p[0] != p[1]]
    if not plain:
        # fully diagonal src is contradictory; the switch rule needs at
        # least one non-diagonal pair, so no single application exists
        return None
    for side, partners in squares:
        anchor: list[tuple[Pair, int]] = []
        for a, b in plain:
            pos = next(
                (i for i, s in enumerate(partners) if a in s and b in s), None
            )
            if pos is None:
                break
            anchor.append(((a, b), pos))
        else:
            return side, tuple(anchor)
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

    for index, a in enumerate(sigma):
        if a.degree > p:
            continue
        if (a.left, a.right) == (goal.left, goal.right):
            return Verdict(True, witness=MembershipWitness(a, index, False))
        if (a.left, a.right) == (goal.right, goal.left):
            return Verdict(True, witness=MembershipWitness(a, index, True))

    for index, a in enumerate(sigma):
        if a.is_contradictory():
            return Verdict(True, witness=ContradictionWitness(a, index))

    if goal.left == goal.right:
        return Verdict(False, plan=cx.plan(sigma, goal))

    goal_pairs = pair_set(goal)
    squares = goal_squares(goal)
    for index, a in enumerate(sigma):
        if a.degree > p:
            continue
        if goal_pairs.issuperset(zip(a.left, a.right)):
            return Verdict(True, witness=SubsetWitness(a, index, False))
        if goal_pairs.issuperset(zip(a.right, a.left)):
            return Verdict(True, witness=SubsetWitness(a, index, True))
        cover = a6_cover(a, squares)
        if cover is not None:
            return Verdict(True, witness=CoverWitness(a, index, *cover))

    return Verdict(False, plan=cx.plan(sigma, goal))


def implies(sigma: Sequence[Atom], goal: Atom) -> bool:
    """Whether sigma derives the goal; certificate details discarded."""
    return decide(sigma, goal).holds
