"""Counterexample teams for refuted implications.

When the decision procedure rejects an implication, a concrete team is
built that satisfies every assumption and falsifies the goal.  Two shapes
cover all cases:

* unary-canonical: the goal's sides are the same tuple (a contradictory
  goal), so a single row of pairwise-distinct fresh values refutes it while
  satisfying any set of non-contradictory assumptions.  It is the block
  below with l = k = 1.
* shared-block: k rows chosen so that p < l/k <= r, where r is the smallest
  assumption degree above the goal degree p.  Rows 1..l repeat a value
  block on the goal's left columns, rows l+1..2l repeat the same blocks on
  the right columns, and every other cell is globally fresh.  Falsifying
  the goal then needs at least l removals, more than the budget p * k,
  while each assumption stays within its own budget.

Rows t and l + t of a block are the goal's generic violating pair
(`generic_pair`): goal positions sharing a variable on either side take
equal values, closed under union-find.  A premise of degree at most p that
conflicts on that pair (`conflicts`) dominates the goal, and the goal then
follows; a premise that does not conflict on it loses no row in the team.
A premise of degree above p may lose both rows of a block, more than its
budget; the verified wrapper re-checks semantically and raises rather than
emit a wrong certificate.  A plan keeps the generic pair its rows are
built from; its `transitive` flag, computed when it is read, tells whether
the merge relation was already transitive before its closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from typing import Iterable, Sequence

from .errors import InternalVerificationError
from .model import Atom, Team
from .semantics import satisfies, satisfies_all


def min_gap_degree(sigma: Sequence[Atom], p: Fraction) -> Fraction | None:
    """Smallest assumption degree strictly above p, if any, compared as
    cross-multiplied integers."""
    p_num, p_den = p.numerator, p.denominator
    gap = None
    for a in sigma:
        d = a.degree
        if d.numerator * p_den > p_num * d.denominator and (
            gap is None or d.numerator * gap.denominator < gap.numerator * d.denominator
        ):
            gap = d
    return gap


def ratio_parameters(p: Fraction, r: Fraction | None) -> tuple[int, int]:
    """Smallest team size k with l = floor(p*k) + 1 removals fitting p < l/k <= r.

    Requires p < 1/2 so that k >= 2l is reachable.  Without r the two-row
    team (l, k) = (1, 2) always works.  Both tests compare cross-multiplied
    integers.
    """
    p_num, p_den = p.numerator, p.denominator
    if 2 * p_num >= p_den:
        raise ValueError(f"ratio search needs a degree below 1/2, got {p}")
    k = 2
    while True:
        l = (p_num * k) // p_den + 1
        if k >= 2 * l and (r is None or l * r.denominator <= r.numerator * k):
            return l, k
        k += 1


def domain_size_bound(plan: "CounterexamplePlan") -> int:
    """Values sufficient for the construction: 3ln + 2lm + (k-2l)(2n+m)."""
    n, m, l, k = plan.n, plan.m, plan.l, plan.k
    return 3 * l * n + 2 * l * m + (k - 2 * l) * (2 * n + m)


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
        lo, hi = min(a, b), max(a, b)
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
    for u, w in ((s, t), (t, s)):
        if u.get(x, x) == w.get(y) and (
            tuple(map(u.get, left, left)) == tuple(map(w.get, right))
        ):
            return True
    for u in (s, t):
        if u.get(x, x) == u.get(y, y) and (
            tuple(map(u.get, left, left)) == tuple(map(u.get, right, right))
        ):
            return True
    return False


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
    pair: GenericPair

    @property
    def transitive(self) -> bool:
        """Whether positions in one class of the pair already shared a
        variable pairwise, on the left or on the right, before the closure."""
        left, right, s = self.goal.left, self.goal.right, self.pair[0]
        return all(
            left[i] == left[j] or right[i] == right[j]
            for i, j in combinations(range(self.n), 2)
            if s[left[i]] == s[left[j]]
        )

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

    Returns the whole schema and its assumption-only tail.  The variables
    are counted first, so the scan stops at the premise completing it.
    """
    schema = dict.fromkeys(goal.left + goal.right)
    goal_width = len(schema)
    total = len(set(schema).union(*[a.left for a in sigma], *[a.right for a in sigma]))
    for atom in sigma:
        if len(schema) == total:
            break
        schema.update(dict.fromkeys(atom.left + atom.right))
    order = tuple(schema)
    return order, order[goal_width:]


def plan(sigma: Sequence[Atom], goal: Atom) -> CounterexamplePlan:
    """Plan the counterexample for a rejected implication.

    Assumes the decision procedure answered FALSE; the parameters are still
    well defined otherwise, but the built team only refutes the goal for
    genuine non-implications.
    """
    return _plan(tuple(sigma), goal, generic_pair(goal))


def _plan(sigma: tuple[Atom, ...], goal: Atom, pair: GenericPair) -> CounterexamplePlan:
    """`plan` on the goal's generic pair, which `decide` has already built."""
    schema, extra = schema_order(sigma, goal)
    p = goal.degree
    if goal.left == goal.right:
        if p.numerator == p.denominator:
            raise ValueError("a degree-1 goal is never refutable")
        return CounterexamplePlan(
            "unary-canonical", sigma, goal, 1, 1, None, schema, extra, pair
        )
    r = min_gap_degree(sigma, p)
    l, k = ratio_parameters(p, r)
    return CounterexamplePlan("shared-block", sigma, goal, l, k, r, schema, extra, pair)


def build_team(cx: CounterexamplePlan) -> Team:
    """Materialize the planned team with values "1", "2", ... in creation order.

    Row t <= l of block t takes one value per class of the generic pair's
    row s, on the goal's left variables; row l + t takes the same values
    per class of the pair's row t, on the right variables.  Every other
    cell is fresh.
    """
    numbers = count(1)
    shared: dict[tuple[int, int], str] = {}
    rows = []
    for row in range(cx.k):
        side, block = divmod(row, cx.l)
        classes = cx.pair[side] if side < 2 else {}
        values = []
        for var in cx.schema:
            c = classes.get(var)
            if c is None:
                values.append(str(next(numbers)))
                continue
            key = (block, c)
            if key not in shared:
                shared[key] = str(next(numbers))
            values.append(shared[key])
        rows.append(tuple(values))
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
