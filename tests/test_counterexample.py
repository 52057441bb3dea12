"""Counterexample planning, team construction, and verification."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from exclusion import (
    InternalVerificationError,
    atom,
    check_derivation,
    min_degree,
    min_removal,
    satisfies,
    synthesize,
    verified_counterexample,
)
from exclusion import counterexample
from exclusion.counterexample import (
    MAX_TEAM_ROWS,
    build_team,
    domain_size_bound,
    plan as counterexample_plan,
    ratio_parameters,
    search_bounds,
    verify as verify_counterexample,
)
from exclusion.decision import decide
from exclusion.errors import CapacityError
from exclusion.model import Team
from exclusion.semantics import satisfies_all
from exclusion.sweep import keystone_atoms


class TestRatioParameters:
    def test_frozen_table(self):
        cases = [
            (Fraction(0), None, (1, 2)),
            (Fraction(0), Fraction(1, 3), (1, 3)),
            (Fraction(0), Fraction(1, 4), (1, 4)),
            (Fraction(1, 4), Fraction(1, 3), (1, 3)),
            (Fraction(1, 3), None, (1, 2)),
            (Fraction(39, 100), Fraction(2, 5), (2, 5)),
        ]
        for p, r, expected in cases:
            assert ratio_parameters(p, r) == expected, (p, r)

    def test_result_satisfies_the_margin(self):
        for p_num, p_den, r_num, r_den in [
            (0, 1, 1, 3),
            (1, 4, 3, 10),
            (2, 5, 9, 20),
            (1, 3, 2, 5),
        ]:
            p = Fraction(p_num, p_den)
            r = Fraction(r_num, r_den)
            if not p < r:
                continue
            l, k = ratio_parameters(p, r)
            assert p < Fraction(l, k) <= r
            assert k >= 2 * l
            assert l == (p.numerator * k) // p.denominator + 1

    def test_rejects_half_and_above(self):
        with pytest.raises(ValueError):
            ratio_parameters(Fraction(1, 2), None)
        with pytest.raises(ValueError):
            ratio_parameters(Fraction(3, 4), None)

    def test_narrow_degree_gap_lists_a_million_rows(self):
        gap = Fraction(1, 4) + Fraction(1, 4_000_000)
        assert ratio_parameters(Fraction(1, 4), gap) == (250_001, 1_000_003)
        assert 1_000_003 <= MAX_TEAM_ROWS

    def test_team_past_the_row_cap_refused(self):
        # the smallest team has 100,000,003 rows, past the cap
        with pytest.raises(CapacityError, match="more than 1048576 rows"):
            ratio_parameters(Fraction(1, 4), Fraction(100_000_001, 400_000_000))

    def test_integer_tests_match_the_fraction_definition(self):
        """The Stern-Brocot descent gives what the definition's walk over
        k = 2, 3, ... gives, on every degree pair with denominators up to
        40: 90,405 pairs, r = None among them."""

        def reference(p, r):
            k = 2
            while True:
                l = (p.numerator * k) // p.denominator + 1
                if k >= 2 * l and (r is None or Fraction(l, k) <= r):
                    return l, k
                k += 1

        degrees = sorted({Fraction(a, b) for b in range(1, 41) for a in range(b + 1)})
        for p in degrees:
            if p >= Fraction(1, 2):
                with pytest.raises(ValueError):
                    ratio_parameters(p, None)
                continue
            for r in [None] + [r for r in degrees if r > p]:
                assert ratio_parameters(p, r) == reference(p, r), (p, r)


class TestPlans:
    def test_empty_sigma_two_row_plan(self):
        plan = counterexample_plan([], atom("x", "y"))
        assert plan.kind == "shared-block"
        assert (plan.l, plan.k) == (1, 2)
        assert plan.r is None
        assert plan.schema == ("x", "y")
        assert plan.transitive

    def test_gap_degree_controls_k(self):
        plan = counterexample_plan([atom("x", "y", "1/3")], atom("x", "y"))
        assert (plan.l, plan.k) == (1, 3)
        assert plan.r == Fraction(1, 3)

    def test_gap_only_counts_degrees_above_goal(self):
        plan = counterexample_plan(
            [atom("x", "y", "1/4"), atom("u", "v", "1/3")],
            atom("x", "y", "1/4"),
        )
        assert plan.r == Fraction(1, 3)
        assert (plan.l, plan.k) == (1, 3)

    def test_contradictory_goal_unary_plan(self):
        plan = counterexample_plan([atom("u", "v")], atom("x", "x"))
        assert plan.kind == "unary-canonical"
        assert (plan.l, plan.k) == (1, 1)

    def test_contradictory_goal_at_degree_one_has_no_plan(self):
        with pytest.raises(ValueError):
            counterexample_plan([], atom("x", "x", 1))

    def test_schema_order(self):
        plan = counterexample_plan(
            [atom("p1", "q1"), atom("q1", "x")], atom("x y", "u x")
        )
        # goal-left first occurrences, new goal-right variables, then
        # premise-only variables in premise order
        assert plan.schema == ("x", "y", "u", "p1", "q1")
        assert plan.extra_vars == ("p1", "q1")
        assert plan.n == 2
        assert plan.m == 2

    def test_merge_classes_transitive_goal(self):
        plan = counterexample_plan([], atom("x x", "u v"))
        assert plan.transitive
        assert plan.pair == ({"x": 0}, {"u": 0, "v": 0})

    def test_merge_classes_non_transitive_goal(self):
        # positions 0-1 share the left variable, 1-2 the right one; the
        # closure chains them while no single variable relates 0 and 2
        plan = counterexample_plan([], atom("g1 g1 g2", "h1 h2 h2"))
        assert not plan.transitive
        assert plan.pair == ({"g1": 0, "g2": 0}, {"h1": 0, "h2": 0})


def eager_transitive(plan):
    """The flag as plans used to store it when they were built: over the
    position classes, grouped by the class of their left cell."""
    goal = plan.goal
    classes: dict[int, list[int]] = {}
    for i, x in enumerate(goal.left):
        classes.setdefault(plan.pair[0][x], []).append(i)
    return all(
        goal.left[i] == goal.left[j] or goal.right[i] == goal.right[j]
        for cls in classes.values()
        for i, j in combinations(cls, 2)
    )


class TestDecidePlansOnItsPair:
    """decide plans a NO on the generic pair it built for domination;
    plan builds its own.  Both must give the same plan.  search_bounds
    reads a NO's bounds off its plan and plans a YES itself."""

    def check(self, sigma, goal):
        verdict = decide(sigma, goal)
        fresh = counterexample_plan(sigma, goal)
        held = verdict.plan or fresh  # a YES has no plan of its own
        bounds = (held.k, domain_size_bound(held))
        assert search_bounds(sigma, goal, verdict.plan) == bounds, (sigma, goal)
        if verdict.holds:
            return
        for name in fresh._fields:
            assert getattr(verdict.plan, name) == getattr(fresh, name), (sigma, goal, name)
        assert verdict.plan.transitive == fresh.transitive == eager_transitive(fresh)

    def test_one_premise_keystone_instances(self):
        atoms = keystone_atoms()
        for premise in atoms:
            for goal in atoms:
                self.check((premise,), goal)

    def test_two_premise_keystone_sample(self):
        atoms = keystone_atoms()
        rng = random.Random(12)
        for _ in range(20_000):
            self.check(tuple(rng.sample(atoms, 2)), rng.choice(atoms))

    def test_non_transitive_goal(self):
        goal = atom("g1 g1 g2", "h1 h2 h2")
        self.check((), goal)
        assert not decide((), goal).plan.transitive


class TestSearchBounds:
    @pytest.mark.parametrize("goal", [atom("x", "y", 1), atom("x y", "x y", 1)])
    @pytest.mark.parametrize("held", [None, counterexample_plan([], atom("u", "v"))])
    def test_degree_one_goal_needs_no_plan(self, monkeypatch, goal, held):
        # every team satisfies the goal: one row of one value stands for
        # them all, and no plan is made or read
        def refuse(*args, **kwargs):
            raise AssertionError("plan called")

        monkeypatch.setattr(counterexample, "plan", refuse)
        assert search_bounds([atom("x", "y", Fraction(1, 3))], goal, held) == (1, 1)


class TestDomainBound:
    def test_two_row_case(self):
        plan = counterexample_plan([], atom("x", "y"))
        # 3n + 2m with n = 2 distinct goal variables... n counts positions
        assert domain_size_bound(plan) == 3 * 1 + 2 * 0

    def test_unary_case(self):
        plan = counterexample_plan([atom("p", "q")], atom("x", "x"))
        # n + m at l = k = 1
        assert domain_size_bound(plan) == 1 + 2

    def test_general_formula(self):
        plan = counterexample_plan([atom("a", "b", "1/3")], atom("x y", "u v"))
        l, k, n, m = plan.l, plan.k, plan.n, plan.m
        assert (l, k, n, m) == (1, 3, 2, 2)
        assert domain_size_bound(plan) == 3 * l * n + 2 * l * m + (k - 2 * l) * (
            2 * n + m
        )


class TestBuildTeam:
    def test_two_row_shared_block(self):
        plan = counterexample_plan([], atom("x", "y"))
        team = build_team(plan)
        assert team.schema == ("x", "y")
        assert team.rows == frozenset({("1", "2"), ("3", "1")})

    def test_three_row_team(self):
        plan = counterexample_plan([atom("x", "y", "1/3")], atom("x", "y"))
        team = build_team(plan)
        assert team.size == 3
        assert min_removal(team, atom("x", "y")) == 1
        assert satisfies(team, atom("x", "y", "1/3"))

    def test_unary_canonical_all_fresh(self):
        plan = counterexample_plan([atom("p", "q")], atom("x", "x"))
        team = build_team(plan)
        assert team.size == 1
        row = next(iter(team.rows))
        assert len(set(row)) == len(row)

    def test_repeated_goal_variable_shares_values(self):
        plan = counterexample_plan([], atom("x x", "u v"))
        team = build_team(plan)
        goal = atom("x x", "u v")
        assert satisfies_all(team, [])
        assert not satisfies(team, goal)

    def test_teams_pass_the_team_checks(self):
        # build_team skips Team's checks; every one-premise keystone NO
        # team must pass them
        atoms = keystone_atoms()
        for premise in atoms:
            for goal in atoms:
                verdict = decide((premise,), goal)
                if not verdict.holds:
                    team = build_team(verdict.plan)
                    assert Team(team.schema, team.rows) == team

    def test_variable_on_both_sides(self):
        goal = atom("x", "y")
        sigma = [atom("y", "x")]
        verdict = decide(sigma, goal)
        if not verdict.holds:
            team = verified_counterexample(verdict.plan)
            assert satisfies_all(team, sigma)


class TestVerify:
    def test_accepts_genuine_counterexample(self):
        sigma = [atom("x", "y", "1/3")]
        goal = atom("x", "y")
        plan = counterexample_plan(sigma, goal)
        team = build_team(plan)
        assert verify_counterexample(team, sigma, goal)

    def test_rejects_wrong_team(self):
        sigma = []
        goal = atom("x", "y")
        from exclusion.model import team_from_rows

        team = team_from_rows(("x", "y"), [("1", "2")])
        assert not verify_counterexample(team, sigma, goal)


class TestVerifiedCounterexample:
    def test_returns_checked_team(self):
        plan = counterexample_plan([], atom("x", "y"))
        team = verified_counterexample(plan)
        assert team.size == 2

    def test_non_transitive_corner_is_dominated(self):
        # rows s, t violating the goal have s.g1 = t.h1, s.g1 = t.h2 and
        # s.g2 = t.h2, so t.h1 = s.g2 violates h1 | g2: the goal holds
        sigma = [atom("h1", "g2")]
        goal = atom("g1 g1 g2", "h1 h2 h2")
        assert not counterexample_plan(sigma, goal).transitive
        verdict = decide(sigma, goal)
        assert verdict.holds
        derivation = synthesize(sigma, goal, verdict.witness)
        assert check_derivation(derivation).ok
        assert derivation.goal == goal

    @pytest.mark.xfail(
        strict=True,
        raises=InternalVerificationError,
        reason="the shared-block plan puts two rows in a block and both violate a | e",
    )
    def test_shared_block_plan_separates(self):
        # the NO is right: one row with a = b = e plus three fresh rows
        # satisfies both premises and violates the goal
        sigma = [atom("a", "b", "1/3"), atom("a", "e", "1/4")]
        goal = atom("b e a b", "a b b e")
        verdict = decide(sigma, goal)
        assert not verdict.holds
        team = verified_counterexample(verdict.plan)
        assert satisfies_all(team, sigma)
        assert not satisfies(team, goal)

    @pytest.mark.xfail(
        strict=True,
        raises=InternalVerificationError,
        reason="no triangle block exists: the pair blocks violate a | e beyond its budget",
    )
    def test_triangle_plan_separates(self):
        # the NO is right: rows r_i = (a = e = v_i, c = v_i+1, d = v_i-1),
        # i mod 3, plus six fresh rows need 2 > 9/5 goal removals and 3
        # a | e removals, within 9/3, and satisfy c d | d c exactly
        sigma = [atom("c d", "d c"), atom("a", "e", "1/3")]
        goal = atom("a e c c", "d d a e", "1/5")
        verdict = decide(sigma, goal)
        assert not verdict.holds
        team = verified_counterexample(verdict.plan)
        assert satisfies_all(team, sigma)
        assert not satisfies(team, goal)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the YES needs both premises together; domination tests one at a time",
    )
    def test_two_premise_implication_holds(self):
        # a collapsed row (a = b = e) violates a b | e a at degree 0; every
        # other goal-violating row pair has a = e and violates a | e, and
        # the goal's conflicts are bipartite, so removal(a | e) is at least
        # twice removal(goal), more than |T| / 4 when the goal fails at 1/5
        sigma = [atom("a b", "e a"), atom("a", "e", "1/4")]
        goal = atom("b e a b", "a b b e", "1/5")
        assert decide(sigma, goal).holds


class TestRandomizedFalseInstances:
    def test_plans_build_and_verify_within_bounds(self):
        rng = random.Random(11)
        pool = ["a", "b", "c"]
        degrees = [Fraction(0), Fraction(1, 4), Fraction(1, 3)]

        def random_atom():
            arity = rng.randrange(1, 3)
            left = tuple(rng.choice(pool) for _ in range(arity))
            right = tuple(rng.choice(pool) for _ in range(arity))
            return atom(left, right, rng.choice(degrees))

        checked = 0
        for _ in range(600):
            sigma = [random_atom() for _ in range(rng.randrange(0, 3))]
            goal = random_atom()
            verdict = decide(sigma, goal)
            if verdict.holds:
                continue
            checked += 1
            team = verified_counterexample(verdict.plan)
            assert team.size <= verdict.plan.k
            assert team.value_count() <= domain_size_bound(verdict.plan)
            assert satisfies_all(team, sigma)
            assert not satisfies(team, goal)
            # a goal with equal sides fails on every nonempty team
            if goal.left != goal.right and not team.is_empty():
                assert min_degree(team, goal) > goal.degree
        assert checked > 100
