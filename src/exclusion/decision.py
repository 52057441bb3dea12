"""Decision procedure for implication between exclusion atoms.

Given assumptions sigma and a goal x|_p y, decides whether sigma implies
the goal.  The checks run in a fixed order and the first one that fires
wins, so results and witnesses are deterministic:

1. p = 1 goals hold outright.
2. degrees in [1/2, 1) are rejected as unsupported.
3. a contradictory assumption of degree below 1 implies everything.
4. the first assumption of degree at most p that dominates the goal
   settles it: it conflicts on the goal's generic violating pair of rows
   s, t (`model.generic_pair`) in one of the row pairs (s, t),
   (t, s), (s, s) or (t, t).

Domination is sound: the generic pair maps into every pair of rows that
violates the goal, so every row set whose removal satisfies the
assumption also satisfies the goal, within the budget p * |T|.  For a
single assumption it is complete: if the assumption does not conflict on
the pair, the pair plus fresh rows separates it from the goal; if its
degree is above p, collapsed rows at a density between the two degrees
do.  Anything else is answered NO with a counterexample plan, which the
verified wrapper re-checks before it emits a team.  The goal's generic
pair is built once and serves both the domination test and the plan.

A goal with equal sides needs no check of its own.  Its generic pair
gives each distinct variable its own class, so only an assumption with
equal sides conflicts on it: one of degree below 1 already fired at step
3, and one of degree 1 lies above p.  So such a goal fails, and its plan
refutes it with one fresh row.

A positive verdict carries a witness from which `calculus.synthesize`
plans a derivation; a negative one carries a counterexample plan.
Witnesses and plans both name themselves through `kind`.  A `Verdict`
is an immutable named tuple, true exactly when the implication holds;
a named tuple is built in a fraction of a frozen dataclass's time, which
is a large share of a call on a few small premises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

from . import counterexample as cx
from .errors import UnsupportedDegreeError
from .model import Atom, conflicts, generic_pair

__all__ = [
    "VacuousDegreeWitness",
    "ContradictionWitness",
    "DominationWitness",
    "DecisionWitness",
    "Verdict",
    "decide",
    "implies",
]


@dataclass(frozen=True)
class VacuousDegreeWitness:
    """The goal has degree 1, which every team satisfies."""

    kind: ClassVar[str] = "vacuous-degree"


@dataclass(frozen=True)
class ContradictionWitness:
    """An assumption with equal sides and degree < 1 derives anything."""

    kind: ClassVar[str] = "contradiction"

    atom: Atom
    index: int


@dataclass(frozen=True)
class DominationWitness:
    """An assumption of degree <= p conflicts on the goal's generic pair."""

    kind: ClassVar[str] = "domination"

    atom: Atom
    index: int


DecisionWitness = VacuousDegreeWitness | ContradictionWitness | DominationWitness


class Verdict(NamedTuple):
    """Outcome of a decision, with its supporting evidence."""

    holds: bool
    witness: DecisionWitness | None = None
    plan: cx.CounterexamplePlan | None = None

    def __bool__(self) -> bool:
        return self.holds


def decide(sigma: Sequence[Atom], goal: Atom) -> Verdict:
    """Decide whether sigma implies the goal, with witness or plan."""
    sigma = tuple(sigma)
    p_num, p_den = goal.degree.as_integer_ratio()

    if p_num == p_den:
        return Verdict(True, VacuousDegreeWitness())
    if 2 * p_num >= p_den:
        raise UnsupportedDegreeError(
            f"goal degrees in [1/2, 1) are not supported, got {goal.degree}"
        )

    for index, a in enumerate(sigma):
        if a.left == a.right and a.degree.numerator < a.degree.denominator:
            return Verdict(True, ContradictionWitness(a, index))

    pair = generic_pair(goal)
    for index, a in enumerate(sigma):
        num, den = a.degree.as_integer_ratio()
        if num * p_den <= p_num * den and conflicts(a, pair):
            return Verdict(True, DominationWitness(a, index))

    return Verdict(False, None, cx.plan(sigma, goal, pair))


def implies(sigma: Sequence[Atom], goal: Atom) -> bool:
    """Whether sigma implies the goal; certificate details discarded."""
    return decide(sigma, goal).holds
