"""Counterexample teams for refuted implications.

When the decision procedure rejects an implication, a concrete team is
planned to satisfy every assumption and falsify the goal.  The planner
builds two shapes:

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
(`model.generic_pair`): goal positions sharing a variable on either side
take equal values, closed under union-find.  A premise of degree at most p
that conflicts on that pair (`model.conflicts`) dominates the goal, and
the goal then follows; a premise that does not conflict on it loses no row
in the team.  A premise of degree above p may lose both rows of a block,
more than its budget.  The two shapes do not separate every right NO:
the strict xfails in tests/test_counterexample.py and README's triangle
are right NOs whose planned team fails its check.  verified_counterexample
re-checks the team and refuses such a NO with UndecidedError (exit 6);
ROADMAP item 1 is the fix.  A plan is an immutable named tuple, which
`plan` fills from all nine values with `tuple.__new__`, as the named
tuple's `_make` does, without a call through the generated `__new__`.  It
keeps the generic pair its rows are built from; its `transitive` flag,
computed when it is read, tells whether the merge relation was already
transitive before its closure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from typing import NamedTuple, Sequence

from .errors import CapacityError, UndecidedError
from .model import Atom, GenericPair, Team, generic_pair, schema_order
from .semantics import satisfies, satisfies_all

MAX_TEAM_ROWS = 2**20  # largest counterexample team the planner lists


def min_gap_degree(sigma: Sequence[Atom], p: Fraction) -> Fraction | None:
    """Smallest assumption degree strictly above p, if any, compared as
    cross-multiplied integers."""
    p_num, p_den = p.as_integer_ratio()
    gap = gap_num = gap_den = None
    for a in sigma:
        d = a.degree
        num, den = d.as_integer_ratio()
        if num * p_den > p_num * den and (gap is None or num * gap_den < gap_num * den):
            gap, gap_num, gap_den = d, num, den
    return gap


def ratio_parameters(p: Fraction, r: Fraction | None) -> tuple[int, int]:
    """Smallest team size k with l = floor(p*k) + 1 removals fitting p < l/k <= r.

    Requires p < 1/2 so that k >= 2l is reachable.  The conditions say that
    some fraction with denominator k lies in (p, min(r, 1/2)], so k is the
    smallest such denominator; without r it is 2.  A Stern-Brocot descent
    between 0/1 and 1/1, whose first mediant is 1/2, finds the simplest
    fraction in that interval, in integers only and one whole run of the
    same turn per step.  A team of more than MAX_TEAM_ROWS rows is refused
    with CapacityError.
    """
    p_num, p_den = p.as_integer_ratio()
    if 2 * p_num >= p_den:
        raise ValueError(f"ratio search needs a degree below 1/2, got {p}")
    if r is None:
        return 1, 2
    r_num, r_den = r.as_integer_ratio()
    # invariant: lo_num/lo_den <= p < hi_num/hi_den
    lo_num, lo_den, hi_num, hi_den = 0, 1, 1, 1
    while True:
        # raise lo by the longest run of mediants at or below p
        j = (p_num * lo_den - lo_num * p_den) // (hi_num * p_den - p_num * hi_den)
        lo_num, lo_den = lo_num + j * hi_num, lo_den + j * hi_den
        k = lo_den + hi_den  # the next mediant lies above p
        if (lo_num + hi_num) * r_den <= r_num * k:
            break
        # lower hi by the longest run of mediants above r
        i = (hi_num * r_den - r_num * hi_den - 1) // (r_num * lo_den - lo_num * r_den)
        hi_num, hi_den = hi_num + i * lo_num, hi_den + i * lo_den
        k = lo_den + hi_den  # the next mediant lies at or below r
        if (lo_num + hi_num) * p_den > p_num * k:
            break
    if k > MAX_TEAM_ROWS:
        raise CapacityError(
            f"a counterexample team for degrees {p} < {r} needs more than"
            f" {MAX_TEAM_ROWS} rows"
        )
    return (p_num * k) // p_den + 1, k


def domain_size_bound(plan: "CounterexamplePlan") -> int:
    """Values sufficient for the construction: 3ln + 2lm + (k-2l)(2n+m)."""
    n, m, l, k = len(plan.goal.left), len(plan.extra_vars), plan.l, plan.k
    return 3 * l * n + 2 * l * m + (k - 2 * l) * (2 * n + m)


class CounterexamplePlan(NamedTuple):
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


_new = tuple.__new__  # fills a CounterexamplePlan from all its values


def plan(
    sigma: Sequence[Atom], goal: Atom, pair: GenericPair | None = None
) -> CounterexamplePlan:
    """Plan the counterexample for a rejected implication.

    Assumes the decision procedure answered FALSE; the parameters are still
    well defined otherwise, but the built team only refutes the goal for
    genuine non-implications.  ``pair`` is the goal's generic pair when
    the caller (`decide`) has already built it.
    """
    sigma = tuple(sigma)
    if pair is None:
        pair = generic_pair(goal)
    schema, extra = schema_order(sigma, goal)
    p = goal.degree
    if goal.left == goal.right:
        if p.numerator == p.denominator:
            raise ValueError("a degree-1 goal is never refutable")
        return _new(
            CounterexamplePlan,
            ("unary-canonical", sigma, goal, 1, 1, None, schema, extra, pair),
        )
    r = min_gap_degree(sigma, p)
    l, k = ratio_parameters(p, r)
    return _new(
        CounterexamplePlan, ("shared-block", sigma, goal, l, k, r, schema, extra, pair)
    )


def search_bounds(
    sigma: Sequence[Atom], goal: Atom, cx: CounterexamplePlan | None = None
) -> tuple[int, int]:
    """The rows and values within which a team separating sigma from the
    goal lies, if one does: the plan's k and `domain_size_bound`.  ``cx``
    is the plan when the caller holds one (a NO verdict's), else None.

    Every team satisfies a degree-1 goal, so no plan bounds a refutation
    of it, and `plan` refuses one; one row of one value stands for all
    teams, and (1, 1) is returned before any plan is read."""
    if goal.degree.numerator == goal.degree.denominator:
        return 1, 1
    if cx is None:
        cx = plan(sigma, goal)
    return cx.k, domain_size_bound(cx)


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
    return Team._unchecked(cx.schema, frozenset(rows))


def verify(team: Team, sigma: Sequence[Atom], goal: Atom) -> bool:
    """Whether the team satisfies every assumption and falsifies the goal."""
    return satisfies_all(team, sigma) and not satisfies(team, goal)


def verified_counterexample(cx: CounterexamplePlan) -> Team:
    """Build the planned team and insist that it works: a team that fails
    its check leaves the NO without a certificate, and UndecidedError is
    raised instead of a verdict."""
    team = build_team(cx)
    if not verify(team, cx.sigma, cx.goal):
        raise UndecidedError(
            "no verified counterexample was found: the constructed team fails "
            "to separate the assumptions from the goal, so the implication is "
            "undecided"
        )
    return team

