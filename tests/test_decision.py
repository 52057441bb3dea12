"""The polynomial-time implication decision and its witness reporting."""

import random
from fractions import Fraction

import pytest

from exclusion import (
    UnsupportedDegreeError,
    atom,
    check_derivation,
    decide,
    implies,
    synthesize,
    verified_counterexample,
)
from exclusion.decision import (
    ContradictionWitness,
    CoverWitness,
    MembershipWitness,
    SubsetWitness,
    VacuousDegreeWitness,
    a6_cover,
    correspondence_sets,
    goal_squares,
    min_gap_degree,
    pair_set,
)

# worked example: x2 y3 x2 x4 | y1 y3 y3 y4
WORKED = atom("x2 y3 x2 x4", "y1 y3 y3 y4")


class TestPairSet:
    def test_worked_example_set(self):
        assert pair_set(WORKED) == frozenset(
            {("x2", "y1"), ("y3", "y3"), ("x2", "y3"), ("x4", "y4")}
        )

    def test_repeated_pairs_collapse(self):
        assert pair_set(atom("x x", "y y")) == frozenset({("x", "y")})

    def test_containment_is_reflexive(self):
        assert pair_set(WORKED) <= pair_set(WORKED)

    def test_appending_grows_the_set(self):
        assert pair_set(atom("x y", "u v")) <= pair_set(atom("x y w", "u v w"))
        assert not pair_set(atom("x y w", "u v w")) <= pair_set(atom("x y", "u v"))
        verdict = decide([atom("x y w", "u v w")], atom("x y", "u v"))
        assert not verdict.holds

    def test_order_and_repetition_irrelevant(self):
        verdict = decide([atom("x y", "u v")], atom("y x x", "v u u"))
        assert verdict.witness == SubsetWitness(atom("x y", "u v"), 0, False)
        verdict = decide([atom("y x x", "v u u")], atom("x y", "u v"))
        assert verdict.witness == SubsetWitness(atom("y x x", "v u u"), 0, False)

    def test_swap_is_not_subset(self):
        assert not pair_set(atom("x", "y")) <= pair_set(atom("y", "x"))
        # only the swapped pair set embeds, so the witness says swapped
        verdict = decide([atom("x", "y")], atom("y z", "x z"))
        assert verdict.witness == SubsetWitness(atom("x", "y"), 0, True)

    def test_degrees_not_consulted(self):
        assert pair_set(atom("x", "y", "1/3")) == pair_set(atom("x", "y"))


class TestCorrespondenceSets:
    def test_worked_example_sets(self):
        corr = correspondence_sets(WORKED)
        # left-side partners: x2 pairs with y1 and y3, y3 with itself
        assert corr.left["x2"] == frozenset({"y1", "y3"})
        assert corr.left["y3"] == frozenset({"y3"})
        # right-side partners of y3: the diagonal pair and x2
        assert corr.right["y3"] == frozenset({"y3", "x2"})
        assert corr.right["y1"] == frozenset({"x2"})
        assert corr.right["y4"] == frozenset({"x4"})
        assert corr.left["x4"] == frozenset({"y4"})

    def test_repeated_variable_unions_partners(self):
        corr = correspondence_sets(atom("x x", "u v"))
        assert corr.left["x"] == frozenset({"u", "v"})


class TestShortCircuits:
    def test_degree_one_goal_always_holds(self):
        verdict = decide([], atom("x", "x", 1))
        assert verdict.holds
        assert isinstance(verdict.witness, VacuousDegreeWitness)

    def test_unsupported_band_rejected(self):
        for degree in ("1/2", "2/3", "3/4", "99/100"):
            with pytest.raises(UnsupportedDegreeError):
                decide([], atom("x", "y", degree))

    def test_no_verdict_object_escapes_the_band(self):
        # the band boundary itself: 1/2 rejected, values below accepted
        decide([], atom("x", "y", "49/100"))
        with pytest.raises(UnsupportedDegreeError):
            decide([], atom("x", "y", "1/2"))


class TestMembership:
    def test_direct(self):
        verdict = decide([atom("u", "v"), atom("x", "y")], atom("x", "y"))
        assert verdict.holds
        assert verdict.witness == MembershipWitness(atom("x", "y"), 1, False)

    def test_swapped(self):
        verdict = decide([atom("y", "x")], atom("x", "y"))
        assert verdict.holds
        assert verdict.witness == MembershipWitness(atom("y", "x"), 0, True)

    def test_lower_premise_degree_accepted(self):
        verdict = decide([atom("x", "y", "1/4")], atom("x", "y", "1/3"))
        assert verdict.holds
        assert isinstance(verdict.witness, MembershipWitness)

    def test_higher_premise_degree_skipped(self):
        verdict = decide([atom("x", "y", "1/3")], atom("x", "y", "1/4"))
        assert not verdict.holds

    def test_first_match_wins(self):
        sigma = [atom("x", "x"), atom("x", "y")]
        verdict = decide(sigma, atom("x", "y"))
        # membership is tested before contradiction, so index 1 wins even
        # though index 0 is contradictory
        assert verdict.witness == MembershipWitness(atom("x", "y"), 1, False)


class TestContradiction:
    def test_contradictory_premise_implies_anything(self):
        verdict = decide([atom("a b", "a b", "1/3")], atom("x", "y", "1/4"))
        assert verdict.holds
        assert verdict.witness == ContradictionWitness(atom("a b", "a b", "1/3"), 0)

    def test_degree_one_premise_is_not_contradictory(self):
        verdict = decide([atom("a", "a", 1)], atom("x", "y"))
        assert not verdict.holds

    def test_checked_before_structure(self):
        sigma = [atom("a", "a"), atom("x w", "y w")]
        verdict = decide(sigma, atom("x", "y"))
        assert isinstance(verdict.witness, ContradictionWitness)


class TestContradictoryGoal:
    def test_false_with_unary_plan(self):
        verdict = decide([atom("u", "v")], atom("x", "x"))
        assert not verdict.holds
        assert verdict.plan.kind == "unary-canonical"
        assert verdict.plan.k == 1

    def test_contradictory_premise_still_wins(self):
        verdict = decide([atom("u", "u")], atom("x", "x"))
        assert verdict.holds


class TestStructural:
    def test_subset(self):
        verdict = decide([atom("x y", "u v")], atom("x y w", "u v w"))
        assert verdict.holds
        assert verdict.witness == SubsetWitness(atom("x y", "u v"), 0, False)

    def test_subset_swapped(self):
        verdict = decide([atom("u v", "x y")], atom("x y w", "u v w"))
        assert verdict.holds
        assert verdict.witness == SubsetWitness(atom("u v", "x y"), 0, True)

    def test_cover(self):
        verdict = decide([atom("x1 w1 w2", "y1 w1 w2")], atom("z1 z1", "x1 y1"))
        assert verdict.holds
        assert isinstance(verdict.witness, CoverWitness)
        assert verdict.witness.side == "left"

    def test_degree_filter_applies_to_structure(self):
        verdict = decide([atom("x w", "y w", "1/3")], atom("z z", "x y", "1/4"))
        assert not verdict.holds

    def test_premises_tried_in_input_order(self):
        sigma = [atom("x y", "u v"), atom("x", "u")]
        verdict = decide(sigma, atom("x y", "u v"))
        assert verdict.witness.index == 0


class TestA6Cover:
    """The one-switch cover: side and anchor are read off the witness."""

    def cover(self, sigma, goal):
        verdict = decide(sigma, goal)
        assert verdict.holds
        assert isinstance(verdict.witness, CoverWitness)
        return verdict.witness.side, dict(verdict.witness.anchor)

    def test_arity_change_example(self):
        # x1 w1 w2 | y1 w1 w2 reaches z1 z1 | x1 y1 through one switch
        src = atom("x1 w1 w2", "y1 w1 w2")
        goal = atom("z1 z1", "x1 y1")
        assert self.cover([src], goal) == ("left", {("x1", "y1"): 0})

    def test_right_side_cover(self):
        # partners of c on the goal's right side are {a, b}, so the pair
        # (a, b) fits there; the left side has no covering position
        side, anchor = self.cover([atom("a", "b")], atom("a b", "c c"))
        assert side == "right"
        assert anchor == {("a", "b"): 0}

    def test_no_cover(self):
        # decide answers this one through membership, so ask the helper
        assert a6_cover(atom("a", "b"), goal_squares(atom("a", "b"))) is None
        # the pair (b, c) fits no partner square on either goal side
        assert not decide([atom("a b", "b c")], atom("z z", "a b")).holds

    def test_repeated_fresh_variable_cover(self):
        # both premise pairs sit inside the partner square of c, so the
        # switch may reuse c at both fresh positions
        side, anchor = self.cover([atom("a b", "b a")], atom("c c", "a b"))
        assert side == "left"
        assert anchor == {("a", "b"): 0, ("b", "a"): 0}

    def test_fully_diagonal_src_has_no_cover(self):
        # decide answers a contradictory premise first, so ask the helper
        squares = goal_squares(atom("z z", "x y"))
        assert a6_cover(atom("x", "x"), squares) is None

    def test_diagonal_pairs_ride_along(self):
        # the diagonal (w, w) needs no cover; only (x, y) must fit
        src = atom("x w", "y w")
        goal = atom("z z", "x y")
        assert self.cover([src], goal)[1] == {("x", "y"): 0}

    def test_symmetric_under_premise_swap(self):
        src = atom("x1 w1 w2", "y1 w1 w2")
        goal = atom("z1 z1", "x1 y1")
        self.cover([src.swapped()], goal)

    def test_anchor_picks_smallest_position(self):
        # both positions of the goal's left side cover (a, b); the witness
        # must anchor at position 0
        side, anchor = self.cover([atom("a", "b")], atom("c c", "a b"))
        assert side == "left"
        assert anchor == {("a", "b"): 0}

    def test_later_premise_covers_through_right_side(self):
        # goal pairs (p, q), (a, c), (b, c): only the right-side variable c,
        # at position 1, partners both a and b.  Premises 0 and 1 fail the
        # subset, swapped-subset and cover tests, so the analysis of the
        # goal made before the loop must serve premise 2 unchanged.
        sigma = [atom("p", "c"), atom("q r", "a a", "1/4"), atom("a", "b")]
        goal = atom("p a b", "q c c", "1/4")
        witness = decide(sigma, goal).witness
        assert witness == CoverWitness(atom("a", "b"), 2, "right", ((("a", "b"), 1),))
        derivation = synthesize(sigma, goal, witness)
        assert check_derivation(derivation).ok
        assert derivation.goal == goal


class TestFalseVerdicts:
    def test_empty_sigma(self):
        verdict = decide([], atom("x", "y"))
        assert not verdict.holds
        assert not verdict
        assert verdict.witness is None
        assert verdict.plan is not None
        assert verdict.plan.kind == "shared-block"
        assert (verdict.plan.l, verdict.plan.k) == (1, 2)

    def test_gap_degree_raises_k(self):
        verdict = decide([atom("x", "y", "1/3")], atom("x", "y"))
        assert not verdict.holds
        assert (verdict.plan.l, verdict.plan.k) == (1, 3)
        assert verdict.plan.r == Fraction(1, 3)

    def test_false_verdict_backed_by_verified_team(self):
        verdict = decide([atom("x", "y", "1/3")], atom("x", "y"))
        team = verified_counterexample(verdict.plan)
        assert team.size == 3


class TestMinGapDegree:
    def test_smallest_degree_above_goal(self):
        sigma = [atom("a", "b", "1/3"), atom("c", "d", "1/4"), atom("e", "f", "2/5")]
        assert min_gap_degree(sigma, Fraction(1, 4)) == Fraction(1, 3)

    def test_none_when_no_premise_exceeds(self):
        sigma = [atom("a", "b", "1/4")]
        assert min_gap_degree(sigma, Fraction(1, 3)) is None
        assert min_gap_degree([], Fraction(0)) is None


class TestImplies:
    def test_bool_sugar(self):
        assert implies([atom("x", "y")], atom("x", "y"))
        assert not implies([], atom("x", "y"))


class TestDeterminism:
    def test_repeated_calls_identical(self):
        sigma = [atom("x w", "y w"), atom("z z", "x y")]
        goal = atom("z z", "x y", "1/4")
        first = decide(sigma, goal)
        second = decide(sigma, goal)
        assert first == second


def rename(a, mapping):
    return atom(
        [mapping[v] for v in a.left], [mapping[v] for v in a.right], a.degree
    )


class TestRenamingEquivariance:
    def test_verdicts_invariant_under_bijective_renaming(self):
        rng = random.Random(5)
        base = ["a", "b", "c", "d"]
        fresh = ["p", "q", "r", "s"]
        degrees = [Fraction(0), Fraction(1, 4), Fraction(1, 3)]

        def random_atom():
            arity = rng.randrange(1, 3)
            left = tuple(rng.choice(base) for _ in range(arity))
            right = tuple(rng.choice(base) for _ in range(arity))
            return atom(left, right, rng.choice(degrees))

        for _ in range(400):
            sigma = [random_atom() for _ in range(rng.randrange(0, 3))]
            goal = random_atom()
            image = list(fresh)
            rng.shuffle(image)
            mapping = dict(zip(base, image))
            renamed_sigma = [rename(a, mapping) for a in sigma]
            renamed_goal = rename(goal, mapping)
            assert (
                decide(sigma, goal).holds
                == decide(renamed_sigma, renamed_goal).holds
            )


class TestTrueVerdictsCertify:
    def test_synthesis_round_trip_over_witness_variety(self):
        cases = [
            ([atom("x", "y")], atom("x", "y", "1/4")),
            ([atom("y", "x")], atom("x", "y")),
            ([atom("a", "a", "1/3")], atom("x y", "u v", "1/4")),
            ([atom("x y", "u v")], atom("y x w", "v u w", "1/3")),
            ([atom("u v", "x y")], atom("x y", "u v")),
            ([atom("x1 w1 w2", "y1 w1 w2")], atom("z1 z1", "x1 y1")),
            ([atom("a", "b")], atom("a b", "c c", "1/4")),
            ([], atom("x x", "y z", 1)),
        ]
        for sigma, goal in cases:
            verdict = decide(sigma, goal)
            assert verdict.holds, (sigma, goal)
            derivation = synthesize(sigma, goal, verdict.witness)
            result = check_derivation(derivation)
            assert result.ok, result.reason
            assert derivation.goal == goal
