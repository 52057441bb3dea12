"""The polynomial-time implication decision and its witness reporting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusion import (
    Atom,
    UnsupportedDegreeError,
    atom,
    check_derivation,
    decide,
    implies,
    synthesize,
    verified_counterexample,
)
from exclusion.calculus import a6_cover, goal_squares
from exclusion.certificate import Rule
from exclusion import calculus, counterexample as cx, model
from exclusion.counterexample import min_gap_degree
from exclusion.model import conflicts, generic_pair, schema_order
from exclusion.decision import ContradictionWitness, DominationWitness, VacuousDegreeWitness
from exclusion.model import team_from_rows
from exclusion.semantics import min_removal

# worked example: x2 y3 x2 x4 | y1 y3 y3 y4
WORKED = atom("x2 y3 x2 x4", "y1 y3 y3 y4")


def swapped(a):
    """The atom with its sides exchanged, same degree."""
    return Atom(a.right, a.left, a.degree)


def route(sigma, goal):
    """The rules of the derivation synthesized for a YES, after checking it."""
    verdict = decide(sigma, goal)
    assert verdict.holds
    derivation = synthesize(sigma, goal, verdict.witness)
    assert check_derivation(derivation).ok
    assert derivation.goal == goal
    return [s.rule for s in derivation.steps]


class TestPairSet:
    """The planner's structural route: the premise's pairs among the goal's."""

    def test_worked_example_set(self):
        # the four pairs (x2, y1), (y3, y3), (x2, y3), (x4, y4), reordered
        assert route([WORKED], atom("x4 x2 y3 x2", "y4 y3 y3 y1")) == [Rule.HYP, Rule.PAIRS]
        # without (x4, y4) the goal no longer contains the premise's pairs
        assert not decide([WORKED], atom("x2 y3 x2", "y1 y3 y3")).holds

    def test_repeated_pairs_collapse(self):
        assert route([atom("x x", "y y")], atom("x", "y")) == [Rule.HYP, Rule.PAIRS]

    def test_containment_is_reflexive(self):
        assert route([WORKED], WORKED) == [Rule.HYP]

    def test_appending_grows_the_set(self):
        assert route([atom("x y", "u v")], atom("x y w", "u v w")) == [Rule.HYP, Rule.A3]
        verdict = decide([atom("x y w", "u v w")], atom("x y", "u v"))
        assert not verdict.holds

    def test_order_and_repetition_irrelevant(self):
        verdict = decide([atom("x y", "u v")], atom("y x x", "v u u"))
        assert verdict.witness == DominationWitness(atom("x y", "u v"), 0)
        assert Rule.DOM not in route([atom("x y", "u v")], atom("y x x", "v u u"))
        verdict = decide([atom("y x x", "v u u")], atom("x y", "u v"))
        assert verdict.witness == DominationWitness(atom("y x x", "v u u"), 0)
        assert Rule.DOM not in route([atom("y x x", "v u u")], atom("x y", "u v"))

    def test_swap_is_not_subset(self):
        # only the swapped pairs embed, so the route ends with a swap
        rules = route([atom("x", "y")], atom("y z", "x z"))
        assert rules == [Rule.HYP, Rule.A3, Rule.A2]

    def test_degrees_not_consulted(self):
        # the pairs decide the route; the degree is raised at the end
        rules = route([atom("x", "y", "1/4")], atom("x w", "y w", "1/3"))
        assert rules == [Rule.HYP, Rule.A3, Rule.A7]


class TestCorrespondenceSets:
    """Partner sets, as goal_squares holds them per goal position."""

    def test_worked_example_sets(self):
        (_, left), (_, right) = goal_squares(WORKED)
        # left squares: partners of x2 {y1, y3} at 0 and 2, of y3 {y3} at
        # 1, of x4 {y4} at 3
        assert left == ({"y1", "y3"}, {"y3"}, {"y1", "y3"}, {"y4"})
        # right squares: partners of y1 {x2} at 0, of y3 {y3, x2} at 1
        # and 2, of y4 {x4} at 3
        assert right == ({"x2"}, {"y3", "x2"}, {"y3", "x2"}, {"x4"})

    def test_repeated_variable_unions_partners(self):
        (_, left), _ = goal_squares(atom("x x", "u v"))
        assert left == ({"u", "v"}, {"u", "v"})


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
        assert verdict.witness == DominationWitness(atom("x", "y"), 1)
        assert route([atom("u", "v"), atom("x", "y")], atom("x", "y")) == [Rule.HYP]

    def test_swapped(self):
        verdict = decide([atom("y", "x")], atom("x", "y"))
        assert verdict.holds
        assert verdict.witness == DominationWitness(atom("y", "x"), 0)
        assert route([atom("y", "x")], atom("x", "y")) == [Rule.HYP, Rule.A2]

    def test_lower_premise_degree_accepted(self):
        assert route([atom("x", "y", "1/4")], atom("x", "y", "1/3")) == [Rule.HYP, Rule.A7]

    def test_higher_premise_degree_skipped(self):
        verdict = decide([atom("x", "y", "1/3")], atom("x", "y", "1/4"))
        assert not verdict.holds

    def test_first_match_wins(self):
        # the planner takes the first premise with the goal's sides,
        # whichever way round
        sigma = [atom("u x", "v y"), atom("y", "x"), atom("x", "y")]
        derivation = synthesize(sigma, atom("x", "y"), decide(sigma, atom("x", "y")).witness)
        assert [s.rule for s in derivation.steps] == [Rule.HYP, Rule.A2]
        assert derivation.steps[0].conclusion == atom("y", "x")


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

    @pytest.mark.parametrize("seed", [3, 11])
    def test_seeded_band(self, seed):
        """Equal-sides goals at arity <= 5, with repeated variables and
        premises over outside ones: NO with the unary plan and a verified
        team, unless some premise has equal sides and degree below 1."""
        rng = random.Random(seed)
        names = "abcdefg"
        degrees = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        yes = 0
        for _ in range(1500):
            side = tuple(rng.choice(names[:4]) for _ in range(rng.randint(1, 5)))
            goal = Atom(side, side, rng.choice(degrees[:3]))
            sigma = []
            for _ in range(rng.randint(0, 3)):
                arity = rng.randint(1, 5)
                left = tuple(rng.choice(names) for _ in range(arity))
                right = left if rng.random() < 0.3 else tuple(
                    rng.choice(names) for _ in range(arity)
                )
                sigma.append(Atom(left, right, rng.choice(degrees)))
            verdict = decide(sigma, goal)
            contradiction = any(a.left == a.right and a.degree < 1 for a in sigma)
            assert verdict.holds == contradiction, (sigma, goal)
            if contradiction:
                yes += 1
                continue
            assert verdict.plan.kind == "unary-canonical"
            assert verdict.plan.k == 1
            verified_counterexample(verdict.plan)
        assert 0 < yes < 1500


class TestOnePassOrder:
    """Contradiction is checked before domination and its degree filter."""

    def test_contradiction_before_membership_wins(self):
        sigma = [atom("a b", "a b", "1/3"), atom("u", "v"), atom("y", "x", "1/4")]
        verdict = decide(sigma, atom("x", "y", "1/4"))
        assert verdict.witness == ContradictionWitness(atom("a b", "a b", "1/3"), 0)

    def test_contradiction_above_goal_degree_fires(self):
        sigma = [atom("x", "y", "1/3"), atom("a", "a", "1/3"), atom("b", "b")]
        verdict = decide(sigma, atom("x", "y"))
        # the first contradictory premise wins, whatever its degree
        assert verdict.witness == ContradictionWitness(atom("a", "a", "1/3"), 1)

    def test_contradiction_beats_an_earlier_subset(self):
        sigma = [atom("x", "y"), atom("a", "a")]
        verdict = decide(sigma, atom("x w", "y w"))
        assert verdict.witness == ContradictionWitness(atom("a", "a"), 1)

    def test_degree_filter_is_exact_at_the_boundary(self):
        goal = atom("x w", "y w", "1/3")
        assert decide([atom("x", "y", "1/3")], goal).witness.kind == "domination"
        assert not decide([atom("x", "y", "34/100")], goal).holds


class TestStructural:
    def test_subset(self):
        verdict = decide([atom("x y", "u v")], atom("x y w", "u v w"))
        assert verdict.witness == DominationWitness(atom("x y", "u v"), 0)
        assert route([atom("x y", "u v")], atom("x y w", "u v w")) == [Rule.HYP, Rule.A3]

    def test_subset_swapped(self):
        verdict = decide([atom("u v", "x y")], atom("x y w", "u v w"))
        assert verdict.witness == DominationWitness(atom("u v", "x y"), 0)
        assert route([atom("u v", "x y")], atom("x y w", "u v w"))[-1] == Rule.A2

    def test_cover(self):
        goal = atom("z1 z1", "x1 y1")
        assert route([atom("x1 w1 w2", "y1 w1 w2")], goal) == [Rule.HYP, Rule.A6]

    def test_degree_filter_applies_to_structure(self):
        verdict = decide([atom("x w", "y w", "1/3")], atom("z z", "x y", "1/4"))
        assert not verdict.holds

    def test_premises_tried_in_input_order(self):
        sigma = [atom("x y", "u v"), atom("x", "u")]
        verdict = decide(sigma, atom("x y", "u v"))
        assert verdict.witness.index == 0


class TestA6Cover:
    """The one-switch cover the planner finds for a dominating premise."""

    def cover(self, sigma, goal):
        assert Rule.A6 in route(sigma, goal)
        side, anchor = a6_cover(sigma[0], goal_squares(goal))
        return side, dict(anchor)

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
        # the planner answers this one through membership, so ask the helper
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
        # a contradictory premise is answered first, so ask the helper
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
        self.cover([swapped(src)], goal)

    def test_anchor_picks_smallest_position(self):
        # both positions of the goal's left side cover (a, b); the witness
        # must anchor at position 0
        side, anchor = self.cover([atom("a", "b")], atom("c c", "a b"))
        assert side == "left"
        assert anchor == {("a", "b"): 0}

    def test_later_premise_covers_through_right_side(self):
        # goal pairs (p, q), (a, c), (b, c): only the right-side variable c,
        # at position 1, partners both a and b.  Premises 0 and 1 neither
        # dominate the goal nor pass the subset, swapped-subset and cover
        # tests, so witness and route are premise 2's.
        sigma = [atom("p", "c"), atom("q r", "a a", "1/4"), atom("a", "b")]
        goal = atom("p a b", "q c c", "1/4")
        witness = decide(sigma, goal).witness
        assert witness == DominationWitness(atom("a", "b"), 2)
        assert a6_cover(atom("a", "b"), goal_squares(goal)) == ("right", ((("a", "b"), 1),))
        derivation = synthesize(sigma, goal, witness)
        assert check_derivation(derivation).ok
        assert derivation.goal == goal
        switch = next(s for s in derivation.steps if s.rule == Rule.A6)
        assert switch.witness.fresh == ("c",)
        assert derivation.steps[-1].rule == Rule.A2

    def test_squares_built_once_per_synthesize(self, monkeypatch):
        # the witness d | b and the premises after it have no A1-A8 route,
        # so each is cover-tested against one set of squares before DOM
        sigma = [atom("a", "e"), atom("d", "b"), atom("b", "d"), atom("d b", "b d")]
        goal = atom("b c c", "c d c")
        witness = decide(sigma, goal).witness
        assert witness.index == 1
        built, tested = [], []
        goal_squares_, a6_cover_ = calculus.goal_squares, calculus.a6_cover
        monkeypatch.setattr(
            calculus, "goal_squares", lambda g: built.append(g) or goal_squares_(g)
        )
        monkeypatch.setattr(
            calculus, "a6_cover", lambda src, sq: tested.append(src) or a6_cover_(src, sq)
        )
        for _ in range(2):
            derivation = synthesize(sigma, goal, witness)
            assert [s.rule for s in derivation.steps] == [Rule.HYP, Rule.DOM]
        assert built == [goal, goal]
        assert tested == sigma[1:] * 2


def reference_goal_squares(goal):
    """Per goal side, each variable's bitmask of the goal positions whose
    partner set holds it: the index that the per-position scan replaced."""
    left_partners, right_partners = {}, {}
    for a, b in zip(goal.left, goal.right):
        left_partners.setdefault(a, set()).add(b)
        right_partners.setdefault(b, set()).add(a)
    left, right = {}, {}
    for i, (a, b) in enumerate(zip(goal.left, goal.right)):
        for v in left_partners[a]:
            left[v] = left.get(v, 0) | 1 << i
        for v in right_partners[b]:
            right[v] = right.get(v, 0) | 1 << i
    return ("left", left), ("right", right)


def reference_a6_cover(src, goal):
    """The bitmask cover: the positions covering (a, b) are the set bits of
    the AND of their masks, and the anchor is the lowest one."""
    for side, masks in reference_goal_squares(goal):
        anchor = {}
        for pair in zip(src.left, src.right):
            a, b = pair
            if a == b or pair in anchor:
                continue
            shared = masks.get(a, 0) & masks.get(b, 0)
            if not shared:
                break
            anchor[pair] = (shared & -shared).bit_length() - 1
        else:
            return (side, tuple(anchor.items())) if anchor else None
    return None


FOUR_VARS = st.sampled_from("abcd")


@st.composite
def small_atoms(draw, max_arity=5):
    arity = draw(st.integers(1, max_arity))
    side = st.lists(FOUR_VARS, min_size=arity, max_size=arity).map(tuple)
    return Atom(draw(side), draw(side))


class TestA6CoverIndex:
    @given(small_atoms(), small_atoms())
    @settings(max_examples=1000, deadline=None)
    def test_bitmask_index_matches_the_partner_set_scan(self, src, goal):
        assert a6_cover(src, goal_squares(goal)) == reference_a6_cover(src, goal)


def generic_team(goal, premise):
    """The goal's generic pair as a team over both atoms' variables: row s
    holds the class of each goal-left variable, row t of each goal-right
    variable, and every other cell a value of its own."""
    s, t = generic_pair(goal)
    schema = tuple(dict.fromkeys(goal.left + goal.right + premise.left + premise.right))
    rows = [
        tuple(f"c{row[v]}" if v in row else f"{name}.{v}" for v in schema)
        for name, row in (("s", s), ("t", t))
    ]
    return team_from_rows(schema, rows)


class TestDomination:
    def test_generic_pair_closes_the_merges(self):
        # positions 0-1 share g1, 1-2 share h2: one class named 0
        s, t = generic_pair(atom("g1 g1 g2", "h1 h2 h2"))
        assert s == {"g1": 0, "g2": 0}
        assert t == {"h1": 0, "h2": 0}
        s, t = generic_pair(atom("x y", "u v"))
        assert (s, t) == ({"x": 0, "y": 1}, {"u": 0, "v": 1})

    def test_each_row_pair_can_conflict(self):
        pair = generic_pair(atom("x y", "u v"))
        assert conflicts(atom("x", "u"), pair)  # (s, t)
        assert conflicts(atom("v", "y"), pair)  # (t, s)
        assert not conflicts(atom("x", "y"), pair)
        pair = generic_pair(atom("a a", "b c"))
        assert conflicts(atom("b", "c"), pair)  # (t, t)
        assert conflicts(atom("w a", "w a"), pair)  # (s, s), fresh w
        assert not conflicts(atom("w", "z"), pair)
        # a fresh variable differs between the rows
        assert not conflicts(atom("a w", "b w"), pair)

    @given(small_atoms(max_arity=4), small_atoms(max_arity=4))
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_two_row_team(self, premise, goal):
        team = generic_team(goal, premise)
        assert min_removal(team, goal) > 0
        assert conflicts(premise, generic_pair(goal)) == (min_removal(team, premise) > 0)

    def test_chained_goal_pairs_are_dominated(self):
        # rows s, t violating the goal have s.d = t.b = s.c = t.a
        verdict = decide([atom("a", "d")], atom("d c c", "b b a"))
        assert verdict.witness == DominationWitness(atom("a", "d"), 0)
        assert route([atom("a", "d")], atom("d c c", "b b a")) == [Rule.HYP, Rule.DOM]


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

    def test_every_no_plans_once_through_the_module_binding(self, monkeypatch):
        # the binding a tracer wraps is the one decide calls
        calls = []
        original = cx.plan

        def counted(sigma, goal, pair=None):
            calls.append(goal)
            return original(sigma, goal, pair)

        monkeypatch.setattr(cx, "plan", counted)
        cases = [
            ([], atom("x", "y"), "shared-block"),
            ([atom("x", "y", "1/3")], atom("x", "y"), "shared-block"),
            ([atom("x", "y")], atom("x", "x", "1/4"), "unary-canonical"),
            ([atom("x", "y")], atom("x", "y"), None),
            ([atom("u", "u")], atom("x", "y"), None),
            ([], atom("x", "y", 1), None),
        ]
        for sigma, goal, kind in cases:
            calls.clear()
            verdict = decide(sigma, goal)
            if kind is None:
                assert verdict.holds and calls == []
            else:
                assert verdict.plan.kind == kind and calls == [goal]
                assert verdict.plan.pair == generic_pair(goal)


class TestRecordsAreImmutable:
    def test_verdict_and_plan_refuse_assignment(self):
        no = decide([], atom("x", "y"))
        yes = decide([atom("x", "y")], atom("x", "y"))
        for record in (no, no.plan, yes):
            for name in (record._fields[0], "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        assert yes and not no and no.plan


class TestMinGapDegree:
    def test_smallest_degree_above_goal(self):
        sigma = [atom("a", "b", "1/3"), atom("c", "d", "1/4"), atom("e", "f", "2/5")]
        assert min_gap_degree(sigma, Fraction(1, 4)) == Fraction(1, 3)

    def test_none_when_no_premise_exceeds(self):
        sigma = [atom("a", "b", "1/4")]
        assert min_gap_degree(sigma, Fraction(1, 3)) is None
        assert min_gap_degree([], Fraction(0)) is None

    def test_degree_equal_to_goal_is_not_above(self):
        sigma = [atom("a", "b", "2/5"), atom("c", "d", "1/4"), atom("e", "f", "1/3")]
        assert min_gap_degree(sigma, Fraction(1, 4)) == Fraction(1, 3)


def reference_schema_order(sigma, goal):
    """Every variable of every premise, scanned in full."""
    schema = dict.fromkeys(goal.left + goal.right)
    goal_width = len(schema)
    schema.update(dict.fromkeys(v for a in sigma for v in a.left + a.right))
    order = tuple(schema)
    return order, order[goal_width:]


class TestSchemaOrder:
    def test_goal_only_and_last_premise_variables(self):
        sigma = [atom("p q", "q p"), atom("x p", "u q"), atom("q", "z", "1/4")]
        goal = atom("x y", "u x")
        order = schema_order(sigma, goal)
        assert order == reference_schema_order(sigma, goal)
        # y only in the goal, z first in the last premise
        assert order == (("x", "y", "u", "p", "q", "z"), ("p", "q", "z"))

    def test_premises_add_nothing(self):
        sigma = [atom("x", "y"), atom("y x", "x u")]
        goal = atom("x y", "u x")
        assert schema_order(sigma, goal) == (("x", "y", "u"), ())
        assert schema_order([], goal) == (("x", "y", "u"), ())

    @pytest.mark.parametrize("fresh_at", ["last", "middle"])
    @pytest.mark.parametrize("n", [*range(13), 1000])
    def test_both_sides_of_the_count_cut_off(self, n, fresh_at):
        # short lists are scanned without a count, long ones counted and
        # cut short; 0-12 premises cross the cut-off
        assert 0 < model.SCHEMA_COUNT_PREMISES <= 12
        rng = random.Random(n)
        names = [f"v{i}" for i in range(8)]

        def side(k):
            return " ".join(rng.choice(names) for _ in range(k))

        goal = atom("v0 v1", "v1 v2")
        sigma = []
        for i in range(n):
            if i % 3 == 2:
                # adds no variable: goal-only, or an earlier premise again
                sigma.append(rng.choice(sigma[:1] + [atom("v1", "v0")]))
            else:
                k = rng.randint(1, 3)
                sigma.append(atom(side(k), side(k), "1/4"))
        if n:
            # one premise brings a variable no other has: the last one, or
            # one midway, after which a counted scan may stop
            sigma[-1 if fresh_at == "last" else n // 2] = atom("v0 fresh", "v2 v1")
        assert schema_order(sigma, goal) == reference_schema_order(sigma, goal)
        assert schema_order(tuple(sigma), goal) == reference_schema_order(sigma, goal)
        assert ("fresh" in schema_order(sigma, goal)[1]) is (n > 0)

    @given(st.lists(small_atoms(), max_size=6), small_atoms())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_scan(self, sigma, goal):
        assert schema_order(sigma, goal) == reference_schema_order(sigma, goal)


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
