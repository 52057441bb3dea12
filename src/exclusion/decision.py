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
   structurally: its pair set embeds into the goal's directly or swapped,
   or an arity switch covers its pairs through one goal side.

A positive verdict carries a witness from which a derivation can be
synthesized; a negative one carries a counterexample plan.  Witnesses and
plans both name themselves through `kind`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from . import counterexample as cx
from . import pairs
from .counterexample import min_gap_degree
from .errors import UnsupportedDegreeError
from .model import Atom, ONE
from .pairs import subset_derivable

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
    """An assumption reaches the goal through one arity switch."""

    kind: ClassVar[str] = "a6-cover"

    atom: Atom
    index: int
    cover: pairs.CoverWitness


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

    for index, a in enumerate(sigma):
        if a.degree > p:
            continue
        if subset_derivable(a, goal):
            return Verdict(True, witness=SubsetWitness(a, index, False))
        if subset_derivable(a.swapped(), goal):
            return Verdict(True, witness=SubsetWitness(a, index, True))
        cover = pairs.a6_cover(a, goal)
        if cover is not None:
            return Verdict(True, witness=CoverWitness(a, index, cover))

    return Verdict(False, plan=cx.plan(sigma, goal))


def implies(sigma: Sequence[Atom], goal: Atom) -> bool:
    """Whether sigma derives the goal; certificate details discarded."""
    return decide(sigma, goal).holds
