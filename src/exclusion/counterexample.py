"""Counterexample teams for refuted implications.

When the decision procedure rejects an implication, a concrete team is
built that satisfies every assumption and falsifies the goal.  Two shapes
cover all cases:

* unary-canonical: the goal's sides are the same tuple (a contradictory
  goal), so a single row of pairwise-distinct fresh values refutes it while
  satisfying any set of non-contradictory assumptions.
* shared-block: k rows chosen so that p < l/k <= r, where r is the smallest
  assumption degree above the goal degree p.  Rows 1..l repeat a value
  block on the goal's left columns, rows l+1..2l repeat the same blocks on
  the right columns, and every other cell is globally fresh.  Falsifying
  the goal then needs at least l removals, more than the budget p * k,
  while each assumption stays within its own budget.

Within a block, goal positions sharing a variable on either side must take
equal values; the induced relation is closed under transitivity to make the
assignment well defined.  When that closure adds merges the relation did
not already have (possible from arity 3 up), the construction can fail to
satisfy an assumption; the verified wrapper re-checks semantically and
raises rather than emit a wrong certificate.  Plans record whether the
relation was already transitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalVerificationError
from .model import Atom, ONE, Team
from .semantics import satisfies, satisfies_all

HALF = Fraction(1, 2)


def min_gap_degree(sigma: Sequence[Atom], p: Fraction) -> Fraction | None:
    """Smallest assumption degree strictly above p, if any."""
    above = [a.degree for a in sigma if a.degree > p]
    return min(above) if above else None


def ratio_parameters(p: Fraction, r: Fraction | None) -> tuple[int, int]:
    """Smallest team size k with l = floor(p*k) + 1 removals fitting p < l/k <= r.

    Requires p < 1/2 so that k >= 2l is reachable.  Without r the two-row
    team (l, k) = (1, 2) always works.
    """
    if not p < HALF:
        raise ValueError(f"ratio search needs a degree below 1/2, got {p}")
    k = 2
    while True:
        l = (p.numerator * k) // p.denominator + 1
        if k >= 2 * l and (r is None or Fraction(l, k) <= r):
            return l, k
        k += 1


def domain_size_bound(plan: "CounterexamplePlan") -> int:
    """Values sufficient for the construction: 3ln + 2lm + (k-2l)(2n+m)."""
    n, m, l, k = plan.n, plan.m, plan.l, plan.k
    return 3 * l * n + 2 * l * m + (k - 2 * l) * (2 * n + m)


def _merge_classes(goal: Atom) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Partition of goal positions under the closed merge relation.

    Positions i, j merge when they share a left variable or a right
    variable; the closure makes this an equivalence.  Also reports whether
    the raw relation was already transitive.
    """
    n = goal.arity
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    def related(i: int, j: int) -> bool:
        return goal.left[i] == goal.left[j] or goal.right[i] == goal.right[j]

    for i in range(n):
        for j in range(i + 1, n):
            if related(i, j):
                union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(tuple(g) for _, g in sorted(groups.items()))
    transitive = all(
        related(i, j)
        for cls in classes
        for i in cls
        for j in cls
        if i < j
    )
    return classes, transitive


@dataclass(frozen=True)
class CounterexamplePlan:
    """Everything needed to build and audit a counterexample team."""

    kind: str  # "unary-canonical" or "shared-block"
    sigma: tuple[Atom, ...]
    goal: Atom
    l: int
    k: int
    r: Fraction | None
    schema: tuple[str, ...]
    extra_vars: tuple[str, ...]
    value_classes: tuple[tuple[int, ...], ...]
    transitive: bool

    @property
    def n(self) -> int:
        return self.goal.arity

    @property
    def m(self) -> int:
        return len(self.extra_vars)


def schema_order(
    sigma: Sequence[Atom], goal: Atom
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Schema order: goal left, new goal right, then assumption-only vars.

    Returns the whole schema and its assumption-only tail.
    """
    schema = dict.fromkeys(goal.left + goal.right)
    goal_width = len(schema)
    schema.update(dict.fromkeys(v for atom in sigma for v in atom.left + atom.right))
    order = tuple(schema)
    return order, order[goal_width:]


def plan(sigma: Sequence[Atom], goal: Atom) -> CounterexamplePlan:
    """Plan the counterexample for a rejected implication.

    Assumes the decision procedure answered FALSE; the parameters are still
    well defined otherwise, but the built team only refutes the goal for
    genuine non-implications.
    """
    sigma = tuple(sigma)
    schema, extra = schema_order(sigma, goal)
    classes, transitive = _merge_classes(goal)
    if goal.left == goal.right:
        if goal.degree >= ONE:
            raise ValueError("a degree-1 goal is never refutable")
        return CounterexamplePlan(
            "unary-canonical", sigma, goal, 1, 1, None,
            schema, extra, classes, transitive,
        )
    r = min_gap_degree(sigma, goal.degree)
    l, k = ratio_parameters(goal.degree, r)
    return CounterexamplePlan(
        "shared-block", sigma, goal, l, k, r,
        schema, extra, classes, transitive,
    )


def build_team(cx: CounterexamplePlan) -> Team:
    """Materialize the planned team with values "1", "2", ... in creation order."""
    goal = cx.goal
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return str(counter)

    if cx.kind == "unary-canonical":
        row = tuple(fresh() for _ in cx.schema)
        return Team(cx.schema, frozenset([row]))

    class_of = {}
    for cls_id, cls in enumerate(cx.value_classes):
        for pos in cls:
            class_of[pos] = cls_id
    left_class = {goal.left[i]: class_of[i] for i in range(goal.arity)}
    right_class = {goal.right[i]: class_of[i] for i in range(goal.arity)}
    left_vars = frozenset(goal.left)
    right_vars = frozenset(goal.right)

    shared: dict[tuple[int, int], str] = {}

    def shared_value(block: int, cls_id: int) -> str:
        key = (block, cls_id)
        if key not in shared:
            shared[key] = fresh()
        return shared[key]

    rows = []
    for t in range(1, cx.k + 1):
        row = []
        for var in cx.schema:
            if t <= cx.l and var in left_vars:
                row.append(shared_value(t, left_class[var]))
            elif cx.l < t <= 2 * cx.l and var in right_vars:
                row.append(shared_value(t - cx.l, right_class[var]))
            else:
                row.append(fresh())
        rows.append(tuple(row))
    return Team(cx.schema, frozenset(rows))


def verify(team: Team, sigma: Sequence[Atom], goal: Atom) -> bool:
    """Whether the team satisfies every assumption and falsifies the goal."""
    return satisfies_all(team, sigma) and not satisfies(team, goal)


def verified_counterexample(cx: CounterexamplePlan) -> Team:
    """Build the planned team and insist that it works."""
    team = build_team(cx)
    if not verify(team, cx.sigma, cx.goal):
        raise InternalVerificationError(
            "constructed team fails to separate the assumptions from the goal"
        )
    return team


def canonical_satisfying_team(
    atoms: Sequence[Atom], extra_vars: Iterable[str] = ()
) -> Team:
    """One row of pairwise-distinct values over the atoms' variables.

    Satisfies every non-contradictory atom: distinct per-variable values
    make unequal tuples take unequal value tuples.  Contradictory atoms are
    rejected, since nothing but the empty team satisfies them.
    """
    for atom in atoms:
        if atom.is_contradictory():
            raise ValueError(f"no nonempty team satisfies {atom}")
    schema = dict.fromkeys(v for atom in atoms for v in atom.left + atom.right)
    schema.update(dict.fromkeys(extra_vars))
    row = tuple(str(i + 1) for i in range(len(schema)))
    return Team(tuple(schema), frozenset([row]))
