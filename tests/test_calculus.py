"""Derivation checking, macro expansion, serialization, and synthesis."""

import inspect
import json
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from exclusion import (
    Atom,
    InternalVerificationError,
    ParseError,
    atom,
    check_derivation,
    decide,
    synthesize,
)
from exclusion import certificate
from exclusion.calculus import end_constant_form
from exclusion.certificate import (
    AppendWitness,
    BlockSwapWitness,
    Derivation,
    RaiseWitness,
    Rule,
    Step,
    SwitchWitness,
    WITNESS_KINDS,
    Witness,
    check_step,
    derivation_from_json,
    derivation_to_json,
    derivation_to_json_str,
)
from exclusion.model import conflicts, generic_pair
from exclusion.oracle import enumerate_row_sets
from exclusion.semantics import columns_of, min_removal_indexed

X_Y = atom("x", "y")
GOLDEN = Path(__file__).resolve().parent / "golden" / "derivation_all_witness_kinds.json"


def swapped(a):
    """The atom with its sides exchanged, same degree."""
    return Atom(a.right, a.left, a.degree)


def ok(step, assumptions=(), prior=()):
    reason = check_step(step, assumptions, prior)
    assert reason is None, reason


def bad(step, assumptions=(), prior=()):
    assert check_step(step, assumptions, prior)


class TestHyp:
    def test_assumption_accepted(self):
        ok(Step(1, Rule.HYP, (), X_Y), assumptions=(X_Y,))

    def test_non_assumption_rejected(self):
        bad(Step(1, Rule.HYP, (), X_Y), assumptions=(atom("u", "v"),))

    def test_degree_must_match_exactly(self):
        bad(Step(1, Rule.HYP, (), atom("x", "y", "1/4")), assumptions=(X_Y,))


class TestA1:
    def test_contradiction_derives_anything_exact(self):
        prem = atom("x y", "x y", "1/3")
        ok(Step(2, Rule.A1, (1,), atom("u", "v")), prior=(prem,))

    def test_premise_sides_must_match(self):
        bad(Step(2, Rule.A1, (1,), atom("u", "v")), prior=(X_Y,))

    def test_degree_one_premise_rejected(self):
        bad(Step(2, Rule.A1, (1,), atom("u", "v")), prior=(atom("x", "x", 1),))

    def test_conclusion_degree_must_be_zero(self):
        bad(
            Step(2, Rule.A1, (1,), atom("u", "v", "1/4")),
            prior=(atom("x", "x"),),
        )


class TestA2:
    def test_swap(self):
        prem = atom("x u", "y v", "1/4")
        ok(Step(2, Rule.A2, (1,), atom("y v", "x u", "1/4")), prior=(prem,))

    def test_wrong_conclusion(self):
        bad(Step(2, Rule.A2, (1,), atom("x u", "y v", "1/4")), prior=(atom("x u", "y v", "1/4"),))


class TestA3:
    def test_append(self):
        ok(
            Step(
                2,
                Rule.A3,
                (1,),
                atom("x u w", "y v w"),
                AppendWitness(("u", "w"), ("v", "w")),
            ),
            prior=(X_Y,),
        )

    def test_empty_append_is_identity(self):
        ok(Step(2, Rule.A3, (1,), X_Y, AppendWitness((), ())), prior=(X_Y,))

    def test_witness_lengths_must_agree(self):
        bad(
            Step(2, Rule.A3, (1,), atom("x u", "y v"), AppendWitness(("u",), ())),
            prior=(X_Y,),
        )

    def test_conclusion_must_match_witness(self):
        bad(
            Step(2, Rule.A3, (1,), atom("x w", "y w"), AppendWitness(("u",), ("v",))),
            prior=(X_Y,),
        )

    def test_missing_witness(self):
        bad(Step(2, Rule.A3, (1,), atom("x u", "y v")), prior=(X_Y,))


class TestA4:
    def test_drop_repeated_block(self):
        prem = atom("x u v u v", "y s t s t")
        ok(Step(2, Rule.A4, (1,), atom("x u v", "y s t")), prior=(prem,))

    def test_block_not_repeated(self):
        prem = atom("x u v", "y s t")
        bad(Step(2, Rule.A4, (1,), atom("x u", "y s")), prior=(prem,))

    def test_degree_preserved(self):
        prem = atom("x u u", "y v v", "1/4")
        bad(Step(2, Rule.A4, (1,), atom("x u", "y v")), prior=(prem,))
        ok(Step(2, Rule.A4, (1,), atom("x u", "y v", "1/4")), prior=(prem,))

    def test_identity_at_zero_block(self):
        ok(Step(2, Rule.A4, (1,), X_Y), prior=(X_Y,))


class TestA5:
    def test_swap_adjacent_blocks(self):
        prem = atom("a b c d", "p q r s")
        # prefix (a), first block (b), second block (c d) running to the end
        ok(
            Step(
                2,
                Rule.A5,
                (1,),
                atom("a c d b", "p r s q"),
                BlockSwapWitness(1, 1, 2),
            ),
            prior=(prem,),
        )

    def test_split_must_partition(self):
        prem = atom("a b", "p q")
        bad(
            Step(2, Rule.A5, (1,), atom("b a", "q p"), BlockSwapWitness(0, 1, 2)),
            prior=(prem,),
        )

    def test_empty_blocks_degenerate_to_identity(self):
        ok(
            Step(2, Rule.A5, (1,), X_Y, BlockSwapWitness(1, 0, 0)),
            prior=(X_Y,),
        )

    def test_conclusion_must_match_split(self):
        prem = atom("a b c", "p q r")
        bad(
            Step(
                2,
                Rule.A5,
                (1,),
                atom("c b a", "r q p"),
                BlockSwapWitness(0, 1, 2),
            ),
            prior=(prem,),
        )


class TestA6:
    def test_arity_switch(self):
        prem = atom("x1 w1 w2", "y1 w1 w2", "1/4")
        ok(
            Step(
                2,
                Rule.A6,
                (1,),
                atom("z1 z1", "x1 y1", "1/4"),
                SwitchWitness(2, ("z1",)),
            ),
            prior=(prem,),
        )

    def test_fresh_tuple_must_be_nonempty(self):
        prem = atom("x", "x")
        bad(Step(2, Rule.A6, (1,), atom("z", "z"), SwitchWitness(1, ())), prior=(prem,))

    def test_premise_must_share_trailing_block(self):
        prem = atom("x1 w1", "y1 v1")
        bad(
            Step(2, Rule.A6, (1,), atom("z z", "x1 y1"), SwitchWitness(1, ("z",))),
            prior=(prem,),
        )

    def test_degree_rides_along(self):
        prem = atom("x w", "y w", "1/3")
        bad(
            Step(2, Rule.A6, (1,), atom("z z", "x y"), SwitchWitness(1, ("z",))),
            prior=(prem,),
        )

    def test_multi_position_switch(self):
        prem = atom("a b w", "c d w")
        ok(
            Step(
                2,
                Rule.A6,
                (1,),
                atom("u v u v", "a b c d"),
                SwitchWitness(1, ("u", "v")),
            ),
            prior=(prem,),
        )


class TestA7:
    def test_raise(self):
        ok(
            Step(2, Rule.A7, (1,), atom("x", "y", "1/3"), RaiseWitness(Fraction(1, 3))),
            prior=(X_Y,),
        )

    def test_lowering_rejected(self):
        bad(
            Step(2, Rule.A7, (1,), X_Y, RaiseWitness(Fraction(0))),
            prior=(atom("x", "y", "1/3"),),
        )

    def test_witness_must_match_conclusion(self):
        bad(
            Step(2, Rule.A7, (1,), atom("x", "y", "1/2"), RaiseWitness(Fraction(1, 3))),
            prior=(X_Y,),
        )

    def test_sides_preserved(self):
        bad(
            Step(2, Rule.A7, (1,), atom("y", "x", "1/3"), RaiseWitness(Fraction(1, 3))),
            prior=(X_Y,),
        )


class TestA8:
    def test_degree_one_unconditional(self):
        ok(Step(1, Rule.A8, (), atom("x u", "y y", 1)))

    def test_other_degrees_rejected(self):
        bad(Step(1, Rule.A8, (), atom("x", "y", "1/2")))


class TestPermContract:
    """PAIRS: one witness-free step that reorders, contracts or duplicates
    the premise's pairs; PERM and CONTRACT, the witnessed steps it
    replaces, are no rules."""

    def refused_rule(self, name):
        assert name not in Rule.__members__
        payload = derivation_to_json(Derivation((X_Y,), (Step(1, Rule.HYP, (), X_Y),)))
        payload["steps"][0]["rule"] = name
        with pytest.raises(ParseError, match=f"'{name}' is not a valid Rule"):
            derivation_from_json(payload)

    def test_perm(self):
        self.refused_rule("PERM")
        ok(Step(2, Rule.PAIRS, (1,), atom("z x y", "w u v")), prior=(atom("x y z", "u v w"),))

    def test_contract(self):
        self.refused_rule("CONTRACT")
        ok(Step(2, Rule.PAIRS, (1,), atom("y x", "v u")), prior=(atom("x y x", "u v u"),))

    def test_contract_several_positions(self):
        prem = atom("x y x z y x", "u v u w v u")
        ok(Step(2, Rule.PAIRS, (1,), atom("x y z", "u v w")), prior=(prem,))
        ok(Step(2, Rule.PAIRS, (1,), atom("z y x", "w v u")), prior=(prem,))

    def test_duplicates_added(self):
        prem = atom("x y", "u v")
        ok(Step(2, Rule.PAIRS, (1,), atom("y x y y", "v u v v")), prior=(prem,))
        ok(Step(2, Rule.PAIRS, (1,), prem), prior=(prem,))

    def test_contract_requires_equal_pairs(self):
        reason = "PAIRS conclusion must have the premise's pair set"
        # a lost pair
        step = Step(2, Rule.PAIRS, (1,), atom("y", "v"))
        assert check_step(step, (), (atom("x y x", "u v u"),)) == reason
        # an extra pair
        step = Step(2, Rule.PAIRS, (1,), atom("x y w", "u v w"))
        assert check_step(step, (), (atom("x y", "u v"),)) == reason
        # the sides' variables kept, their pairing changed
        step = Step(2, Rule.PAIRS, (1,), atom("x y", "v u"))
        assert check_step(step, (), (atom("x y", "u v"),)) == reason

    def test_degree_preserved(self):
        step = Step(2, Rule.PAIRS, (1,), atom("y x", "v u", "1/3"))
        assert check_step(step, (), (atom("x y", "u v", "1/4"),)) == "PAIRS preserves the degree"

    def test_witness_rejected(self):
        prem = atom("x y x", "u v u")
        for w in (NO_WITNESS, AppendWitness((), ()), BlockSwapWitness(0, 1, 2)):
            step = Step(2, Rule.PAIRS, (1,), atom("x y", "u v"), w)
            assert check_step(step, (), (prem,)) == "PAIRS takes no witness"


class TestPairsExhaustive:
    """Every PAIRS step between the 819 side pairs over a, b, c of arity
    <= 3, at one degree: 670,761 steps."""

    def test_accepts_exactly_the_steps_that_keep_the_pair_set(self):
        degree = Fraction(1, 4)
        atoms = [
            Atom(left, right, degree)
            for n in (1, 2, 3)
            for left in product("abc", repeat=n)
            for right in product("abc", repeat=n)
        ]
        pair_sets = [frozenset(zip(a.left, a.right)) for a in atoms]
        steps = [Step(2, Rule.PAIRS, (1,), a) for a in atoms]
        accepted = 0
        for prem, prem_pairs in zip(atoms, pair_sets):
            prior = (prem,)
            for step, pairs in zip(steps, pair_sets):
                same = pairs == prem_pairs
                assert (check_step(step, (), prior) is None) == same, (prem, step.conclusion)
                if same:
                    accepted += 1
                    raised = Atom(step.conclusion.left, step.conclusion.right, Fraction(1, 3))
                    assert check_step(Step(2, Rule.PAIRS, (1,), raised), (), prior)
        # per pair set, the atoms of arity <= 3 holding it: 3 for one pair,
        # 8 for two, 6 for three; 9 * 3**2 + 36 * 8**2 + 84 * 6**2 = 5,409
        assert (len(atoms), accepted) == (819, 5409)


class TestPairsLemma:
    """The fact PAIRS rests on, checked on the removal search alone: an
    atom's minimum removal equals that of its sorted distinct-pair form."""

    def test_min_removal_depends_only_on_the_pair_set(self):
        teams = [rows for rows in enumerate_row_sets(2, 4, 4) if rows]
        columns = [columns_of(rows, 2) for rows in teams]
        # column 0 is a, column 1 is b
        checked = 0
        for n in (1, 2, 3):
            for left in product((0, 1), repeat=n):
                for right in product((0, 1), repeat=n):
                    normal = sorted(set(zip(left, right)))
                    if list(zip(left, right)) == normal:
                        continue
                    normal_left, normal_right = zip(*normal)
                    for team in columns:
                        assert min_removal_indexed(team, left, right) == min_removal_indexed(
                            team, normal_left, normal_right
                        ), (left, right, team)
                    checked += 1
        assert (checked, len(teams)) == (70, 488)


class TestStepPlumbing:
    def test_premise_reference_must_be_earlier(self):
        bad(Step(1, Rule.A2, (1,), atom("y", "x")), prior=())
        bad(Step(2, Rule.A2, (2,), atom("y", "x")), prior=(X_Y,))

    def test_premise_count_enforced(self):
        bad(Step(2, Rule.A2, (), atom("y", "x")), prior=(X_Y,))
        bad(Step(1, Rule.HYP, (1,), X_Y), assumptions=(X_Y,), prior=(X_Y,))


class TestCheckDerivation:
    def test_valid_two_step(self):
        d = Derivation(
            (X_Y,),
            (
                Step(1, Rule.HYP, (), X_Y),
                Step(2, Rule.A2, (1,), atom("y", "x")),
            ),
        )
        assert check_derivation(d).ok

    def test_misnumbered_step_reported(self):
        d = Derivation((X_Y,), (Step(2, Rule.HYP, (), X_Y),))
        result = check_derivation(d)
        assert not result.ok
        assert result.failing_step == 1

    def test_empty_derivation_rejected(self):
        result = check_derivation(Derivation((), ()))
        assert not result.ok

    def test_failure_pinpoints_step(self):
        d = Derivation(
            (X_Y,),
            (
                Step(1, Rule.HYP, (), X_Y),
                Step(2, Rule.A2, (1,), atom("x", "y")),
            ),
        )
        result = check_derivation(d)
        assert not result.ok
        assert result.failing_step == 2


# ==========================================================================
# macro expansion: PAIRS is admissible
# ==========================================================================

def _rotation_steps(
    left: list[str], right: list[str], target: list[int]
) -> list[tuple[BlockSwapWitness, tuple[str, ...], tuple[str, ...]]]:
    """A5 witnesses realizing a reordering, by rotating picks to the end.

    target lists current positions in their desired final order.  Mutates
    left/right in place and returns one entry per emitted step.
    """
    n = len(left)
    current = list(range(n))
    out: list[tuple[BlockSwapWitness, tuple[str, ...], tuple[str, ...]]] = []
    if target == current:
        return out
    for want in target:
        j = current.index(want)
        if j == n - 1:
            continue
        current[:] = current[:j] + current[j + 1 :] + [current[j]]
        left[:] = left[:j] + left[j + 1 :] + [left[j]]
        right[:] = right[:j] + right[j + 1 :] + [right[j]]
        out.append((BlockSwapWitness(j, 1, n - j - 1), tuple(left), tuple(right)))
    return out


def expand_macros(derivation: Derivation) -> Derivation:
    """Rewrite PAIRS steps into primitive A3/A4/A5 chains.

    A PAIRS step appends its conclusion with A3, then drops the premise's
    own positions one at a time, last first: rotate an appended position
    holding the same pair, then the dropped one, to the end, drop the
    repeated trailing pair with A4, and rotate the rest back into order.
    The input must check; the output checks and proves the same goal using
    primitive rules only.  This is the proof that the macro rule is
    admissible, which is why the package can check it on pair sets.
    """
    result = check_derivation(derivation)
    if not result.ok:
        raise ValueError(f"cannot expand an invalid derivation: {result.reason}")
    new_steps: list[Step] = []
    mapped: dict[int, int] = {}

    def emit(rule: Rule, premises: tuple[int, ...], concl: Atom, w: Witness) -> int:
        index = len(new_steps) + 1
        new_steps.append(Step(index, rule, premises, concl, w))
        return index

    def emit_rotation(src_index: int, prem: Atom, target: list[int]) -> int:
        left, right = list(prem.left), list(prem.right)
        last = src_index
        for w, new_left, new_right in _rotation_steps(left, right, target):
            last = emit(Rule.A5, (last,), Atom(new_left, new_right, prem.degree), w)
        return last

    def restrict(prem: Atom, positions: list[int]) -> Atom:
        return Atom(
            tuple(prem.left[i] for i in positions),
            tuple(prem.right[i] for i in positions),
            prem.degree,
        )

    def emit_contraction(last: int, prem: Atom, j: int, k: int) -> tuple[int, Atom]:
        """Drop position j of prem, whose pair also sits at position k."""
        others = [i for i in range(prem.arity) if i not in (j, k)]
        last = emit_rotation(last, prem, others + [k, j])
        dropped = restrict(prem, others + [k])
        last = emit(Rule.A4, (last,), dropped, None)
        kept = [i for i in range(prem.arity) if i != j]
        last = emit_rotation(last, dropped, [(others + [k]).index(i) for i in kept])
        return last, restrict(prem, kept)

    for step in derivation.steps:
        refs = tuple(mapped[r] for r in step.premises)
        if step.rule == Rule.PAIRS:
            prem, concl = derivation.steps[step.premises[0] - 1].conclusion, step.conclusion
            n = prem.arity
            current = Atom(prem.left + concl.left, prem.right + concl.right, prem.degree)
            last = emit(Rule.A3, refs, current, AppendWitness(concl.left, concl.right))
            # every premise pair sits at an appended position: drop the
            # premise positions, last first, so each lies at its own index
            appended = list(zip(concl.left, concl.right))
            for j in reversed(range(n)):
                k = j + 1 + appended.index((prem.left[j], prem.right[j]))
                last, current = emit_contraction(last, current, j, k)
            mapped[step.index] = last
        else:
            mapped[step.index] = emit(step.rule, refs, step.conclusion, step.witness)

    return Derivation(derivation.assumptions, tuple(new_steps))


class TestExpandMacros:
    def assert_expansion(self, derivation):
        assert check_derivation(derivation).ok
        expanded = expand_macros(derivation)
        assert check_derivation(expanded).ok
        assert expanded.goal == derivation.goal
        assert all(s.rule != Rule.PAIRS for s in expanded.steps)
        return expanded

    def pairs_step(self, prem, concl):
        return Derivation(
            (prem,), (Step(1, Rule.HYP, (), prem), Step(2, Rule.PAIRS, (1,), concl))
        )

    def test_contract_expands_to_rotations_and_a4(self):
        d = self.pairs_step(atom("x y x", "u v u"), atom("y x", "v u"))
        expanded = self.assert_expansion(d)
        assert expanded.steps[1].rule == Rule.A3
        assert any(s.rule == Rule.A4 for s in expanded.steps)

    def test_three_positions_expand_to_three_contractions(self):
        d = self.pairs_step(atom("x y x", "u v u"), atom("x y", "u v"))
        expanded = self.assert_expansion(d)
        # the appended arity-5 atom loses the three premise positions
        dropped = [s.conclusion.arity for s in expanded.steps if s.rule == Rule.A4]
        assert dropped == [4, 3, 2]

    def test_reorder_only_expands(self):
        d = self.pairs_step(atom("x y z", "u v w"), atom("z x y", "w u v"))
        expanded = self.assert_expansion(d)
        assert [s.rule for s in expanded.steps].count(Rule.A4) == 3

    def test_duplication_expands(self):
        self.assert_expansion(self.pairs_step(atom("x y", "u v"), atom("y x y", "v u v")))

    def test_synthesized_contract_expands(self):
        # the planner's shape: one PAIRS step onto the target's pair set
        sigma = [atom("x y x", "u v u", "1/4")]
        goal = atom("y x", "v u", "1/3")
        d = synthesize(sigma, goal, decide(sigma, goal).witness)
        assert [s.rule for s in d.steps] == [Rule.HYP, Rule.PAIRS, Rule.A7]
        self.assert_expansion(d)
        # and behind an append of the missing pairs
        sigma = [atom("x y x", "u v u", "1/4")]
        goal = atom("w y x", "w v u", "1/4")
        d = synthesize(sigma, goal, decide(sigma, goal).witness)
        assert [s.rule for s in d.steps] == [Rule.HYP, Rule.A3, Rule.PAIRS]
        self.assert_expansion(d)

    def test_macro_free_derivation_unchanged(self):
        d = Derivation(
            (X_Y,),
            (
                Step(1, Rule.HYP, (), X_Y),
                Step(2, Rule.A2, (1,), atom("y", "x")),
            ),
        )
        assert expand_macros(d) == d

    def test_invalid_input_rejected(self):
        d = Derivation((), (Step(1, Rule.HYP, (), X_Y),))
        with pytest.raises(ValueError):
            expand_macros(d)


class TestSerialization:
    def round_trip(self, derivation):
        text = derivation_to_json_str(derivation)
        again = derivation_from_json(json.loads(text))
        assert again == derivation
        # the text form itself is stable
        assert derivation_to_json_str(again) == text

    def test_round_trip_all_witness_kinds(self):
        prem = atom("x1 w1 w2", "y1 w1 w2", "1/4")
        sigma = [prem]
        goal = atom("z1 z1", "x1 y1", "1/4")
        verdict = decide(sigma, goal)
        self.round_trip(synthesize(sigma, goal, verdict.witness))

        dup = atom("x1 w1 w1", "y1 w1 w1", "1/4")
        d = Derivation(
            (dup,),
            (
                Step(1, Rule.HYP, (), dup),
                Step(2, Rule.PAIRS, (1,), atom("x1 w1", "y1 w1", "1/4")),
                Step(
                    3,
                    Rule.A5,
                    (2,),
                    atom("w1 x1", "w1 y1", "1/4"),
                    BlockSwapWitness(0, 1, 1),
                ),
                Step(
                    4,
                    Rule.A7,
                    (2,),
                    atom("x1 w1", "y1 w1", "1/3"),
                    RaiseWitness(Fraction(1, 3)),
                ),
            ),
        )
        assert check_derivation(d).ok
        self.round_trip(d)

    def test_format_tag_required(self):
        payload = derivation_to_json(
            Derivation((X_Y,), (Step(1, Rule.HYP, (), X_Y),))
        )
        payload["format"] = 99
        with pytest.raises(ParseError):
            derivation_from_json(payload)

    def test_format_1_refused(self):
        # format 1 had PERM and one-position CONTRACT witnesses
        payload = derivation_to_json(
            Derivation((X_Y,), (Step(1, Rule.HYP, (), X_Y),))
        )
        assert payload["format"] == 3
        payload["format"] = 1
        with pytest.raises(ParseError) as info:
            derivation_from_json(payload)
        assert str(info.value) == "unsupported certificate format: 1"

    def test_format_2_refused(self):
        # format 2 had CONTRACT steps with a witness of removed positions
        payload = derivation_to_json(
            Derivation((X_Y,), (Step(1, Rule.HYP, (), X_Y),))
        )
        payload["format"] = 2
        with pytest.raises(ParseError) as info:
            derivation_from_json(payload)
        assert str(info.value) == "unsupported certificate format: 2"

    def test_unknown_rule_rejected(self):
        payload = derivation_to_json(
            Derivation((X_Y,), (Step(1, Rule.HYP, (), X_Y),))
        )
        payload["steps"][0]["rule"] = "A9"
        with pytest.raises(ParseError):
            derivation_from_json(payload)

    def test_malformed_witness_rejected(self):
        payload = derivation_to_json(
            Derivation((X_Y,), (Step(1, Rule.HYP, (), X_Y),))
        )
        payload["steps"][0]["witness"] = {"kind": "mystery"}
        with pytest.raises(ParseError):
            derivation_from_json(payload)

    def test_text_of_every_witness_kind_is_pinned(self):
        # one derivation using all four witness kinds; a change of key order,
        # kind name or field encoding changes this text
        dup = atom("x1 w1 x1 w1", "y1 w1 y1 w1", "1/4")
        d = Derivation(
            (dup,),
            (
                Step(1, Rule.HYP, (), dup),
                Step(2, Rule.PAIRS, (1,), atom("x1 w1", "y1 w1", "1/4")),
                Step(3, Rule.A5, (2,), atom("w1 x1", "w1 y1", "1/4"), BlockSwapWitness(0, 1, 1)),
                Step(4, Rule.A7, (2,), atom("x1 w1", "y1 w1", "1/3"), RaiseWitness(Fraction(1, 3))),
                Step(5, Rule.A6, (4,), atom("z1 z1", "x1 y1", "1/3"), SwitchWitness(1, ("z1",))),
                Step(6, Rule.A3, (5,), atom("z1 z1 u", "x1 y1 v", "1/3"), AppendWitness(("u",), ("v",))),
            ),
        )
        assert check_derivation(d).ok
        assert {type(s.witness) for s in d.steps} - {type(None)} == set(WITNESS_KINDS.values())
        text = derivation_to_json_str(d)
        assert text + "\n" == GOLDEN.read_text()
        assert derivation_from_json(json.loads(text)) == d

    @pytest.mark.parametrize(
        "path, value",
        [
            # a side is a list of names, not a string of letters
            (("assumptions", 0, "left"), "xww"),
            (("steps", 0, "conclusion", "right"), "yww"),
            # a bool is not an int
            (("format",), True),
            (("steps", 0, "index"), True),
            (("steps", 1, "premises"), [True]),
            (("steps", 2, "witness", "prefix"), True),
            (("steps", 2, "premises"), [True, 0]),
            (("steps", 2, "witness", "first"), 1.0),
            (("steps", 0, "rule"), 1),
            (("assumptions", 0, "degree"), 0),
        ],
    )
    def test_malformed_field_rejected(self, path, value):
        prem = atom("x w w", "y w w")
        payload = derivation_to_json(
            Derivation(
                (prem,),
                (
                    Step(1, Rule.HYP, (), prem),
                    Step(2, Rule.PAIRS, (1,), atom("x w", "y w")),
                    Step(3, Rule.A5, (2,), atom("w x", "w y"), BlockSwapWitness(0, 1, 1)),
                ),
            )
        )
        assert check_derivation(derivation_from_json(payload)).ok
        *keys, last = path
        target = payload
        for key in keys:
            target = target[key]
        target[last] = value
        with pytest.raises(ParseError):
            derivation_from_json(payload)

    def test_missing_witness_reads_as_none(self):
        payload = derivation_to_json(Derivation((X_Y,), (Step(1, Rule.HYP, (), X_Y),)))
        del payload["steps"][0]["witness"]
        assert derivation_from_json(payload).steps[0].witness is None

    def test_degrees_survive_as_exact_rationals(self):
        a = atom("x", "y", "17/50")
        payload = derivation_to_json(Derivation((a,), (Step(1, Rule.HYP, (), a),)))
        assert payload["assumptions"][0]["degree"] == "17/50"
        again = derivation_from_json(payload)
        assert again.assumptions[0].degree == Fraction(17, 50)


class TestSynthesize:
    def check(self, sigma, goal):
        verdict = decide(sigma, goal)
        assert verdict.holds
        derivation = synthesize(sigma, goal, verdict.witness)
        result = check_derivation(derivation)
        assert result.ok, result.reason
        assert derivation.goal == goal
        return [s.rule for s in derivation.steps]

    def test_vacuous_degree(self):
        assert self.check([], atom("x", "y", 1)) == [Rule.A8]

    def test_membership_direct(self):
        assert self.check([X_Y], X_Y) == [Rule.HYP]

    def test_membership_swapped_with_raise(self):
        rules = self.check([atom("y", "x")], atom("x", "y", "1/4"))
        assert rules == [Rule.HYP, Rule.A2, Rule.A7]

    def test_contradiction(self):
        rules = self.check([atom("a b", "a b", "1/3")], atom("x", "y", "1/4"))
        assert rules == [Rule.HYP, Rule.A1, Rule.A7]

    def test_subset_single_append(self):
        # target extends the premise pairwise, so one append suffices
        rules = self.check([X_Y], atom("x u1", "y v1", "1/4"))
        assert rules == [Rule.HYP, Rule.A3, Rule.A7]

    def test_subset_general_transform(self):
        rules = self.check([atom("x y", "u v")], atom("y x", "v u"))
        assert rules[0] == Rule.HYP
        assert rules == [Rule.HYP, Rule.PAIRS]

    def test_subset_swapped(self):
        rules = self.check([atom("y", "x")], swapped(atom("x w", "y w")))
        assert rules[0] == Rule.HYP

    def test_cover_left(self):
        rules = self.check(
            [atom("x1 w1 w2", "y1 w1 w2")], atom("z1 z1", "x1 y1")
        )
        assert rules == [Rule.HYP, Rule.A6]

    def test_cover_right_ends_with_swap(self):
        rules = self.check([atom("a", "b")], atom("a b", "c c"))
        assert rules[-1] == Rule.A2
        assert Rule.A6 in rules

    def test_cover_with_duplicate_pairs_contracts_first(self):
        rules = self.check(
            [atom("x1 x1 w1", "y1 y1 w1")], atom("z1 z1", "x1 y1")
        )
        assert rules == [Rule.HYP, Rule.PAIRS, Rule.A6]
        # three repeats and a diagonal pair in the middle: one PAIRS step
        # onto the end-constant form
        sigma = [atom("x1 w1 x2 x1 x2 w1", "y1 w1 y2 y1 y2 w1")]
        goal = atom("z1 z2 z1 z2", "x1 x2 y1 y2")
        self.check(sigma, goal)
        steps = synthesize(sigma, goal, decide(sigma, goal).witness).steps
        assert [(s.rule, s.witness) for s in steps] == [
            (Rule.HYP, None),
            (Rule.PAIRS, None),
            (Rule.A6, SwitchWitness(1, ("z1", "z2"))),
        ]

    def test_unknown_witness_rejected(self):
        with pytest.raises(ValueError):
            synthesize([], atom("x", "y"), object())


class TestCertificateGrowth:
    """A goal that shuffles a premise's pairs and swaps its sides takes the
    same few steps at every arity, so certificate bytes grow linearly."""

    def test_steps_bounded_and_bytes_linear(self):
        names = [f"v{i}" for i in range(200)]
        bytes_per_position = []
        for n in (100, 1000, 10_000):
            rng = random.Random(n)
            pairs = [(rng.choice(names), rng.choice(names)) for _ in range(n)]
            premise = Atom(tuple(a for a, _ in pairs), tuple(b for _, b in pairs), Fraction(1, 5))
            rng.shuffle(pairs)
            goal = Atom(tuple(b for _, b in pairs), tuple(a for a, _ in pairs), Fraction(1, 4))
            derivation = synthesize([premise], goal, decide([premise], goal).witness)
            assert len(derivation.steps) <= 4
            bytes_per_position.append(len(derivation_to_json_str(derivation)) / n)
        for smaller, larger in zip(bytes_per_position, bytes_per_position[1:]):
            assert larger <= 1.1 * smaller, bytes_per_position


class TestDom:
    """DOM: one step from a dominating premise, recomputed from the atoms."""

    PREMISE = atom("a", "d")
    GOAL = atom("d c c", "b b a")

    def test_conflict_on_the_generic_pair_accepted(self):
        ok(Step(2, Rule.DOM, (1,), self.GOAL), prior=(self.PREMISE,))
        # (s, s): the goal merges s.a and s.b through t.x
        ok(Step(2, Rule.DOM, (1,), atom("a b", "x x", "1/4")), prior=(atom("b", "a", "1/5"),))

    def test_no_conflict_rejected(self):
        bad(Step(2, Rule.DOM, (1,), self.GOAL), prior=(atom("a", "e"),))
        bad(Step(2, Rule.DOM, (1,), atom("x y", "u v")), prior=(atom("x", "v"),))

    def test_degree_above_the_conclusion_rejected(self):
        bad(Step(2, Rule.DOM, (1,), self.GOAL), prior=(atom("a", "d", "1/4"),))

    def test_witness_rejected(self):
        step = Step(2, Rule.DOM, (1,), self.GOAL, RaiseWitness(Fraction(0)))
        bad(step, prior=(self.PREMISE,))

    def test_round_trip(self):
        sigma = [atom("a", "d", "1/4")]
        goal = atom("d c c", "b b a", "1/3")
        derivation = synthesize(sigma, goal, decide(sigma, goal).witness)
        assert [s.rule for s in derivation.steps] == [Rule.HYP, Rule.DOM]
        text = derivation_to_json_str(derivation)
        again = derivation_from_json(json.loads(text))
        assert again == derivation
        assert check_derivation(again).ok
        assert json.loads(text)["steps"][1] == {
            "index": 2,
            "rule": "DOM",
            "premises": [1],
            "conclusion": {"left": ["d", "c", "c"], "right": ["b", "b", "a"], "degree": "1/3"},
            "witness": None,
        }


    def test_smallest_goal_that_needs_dom(self):
        # a side that repeats a variable: no A1-A8 route is found
        sigma = [atom("d", "b")]
        goal = atom("b c c", "c d c")
        derivation = synthesize(sigma, goal, decide(sigma, goal).witness)
        assert [s.rule for s in derivation.steps] == [Rule.HYP, Rule.DOM]

    @pytest.mark.parametrize("seed", [1, 7])
    def test_repetition_free_sides_never_need_dom(self, seed):
        # one premise and one goal over six variables at arity <= 4, no
        # side repeating a variable; every other goal is the premise's
        # pairs shuffled, with one random pair added where that repeats
        # no variable
        rng = random.Random(seed)
        names = tuple(f"v{i}" for i in range(6))
        degrees = (Fraction(0), Fraction(1, 4), Fraction(1, 3))

        def side(arity):
            return tuple(rng.sample(names, arity))

        dominated = 0
        for i in range(40_000):
            arity = rng.randint(1, 4)
            premise = Atom(side(arity), side(arity), rng.choice(degrees))
            if i % 2:
                pairs = list(zip(premise.left, premise.right))
                pairs.append((rng.choice(names), rng.choice(names)))
                rng.shuffle(pairs)
                left, right = zip(*pairs)
                if len(set(left)) < len(left) or len(set(right)) < len(right):
                    left, right = premise.left, premise.right
                goal = Atom(tuple(left), tuple(right), rng.choice(degrees))
            else:
                arity = rng.randint(1, 4)
                goal = Atom(side(arity), side(arity), rng.choice(degrees))
            verdict = decide([premise], goal)
            if verdict.holds and verdict.witness.kind == "domination":
                dominated += 1
                steps = synthesize([premise], goal, verdict.witness).steps
                assert all(s.rule is not Rule.DOM for s in steps), (premise, goal)
        assert dominated > 12_000


class TestEndConstantForm:
    def test_diagonals_move_last(self):
        a = atom("w x w y", "w u w y")
        ec = end_constant_form(a)
        assert ec == atom("x w y", "u w y")
        assert set(zip(ec.left, ec.right)) == set(zip(a.left, a.right))

    def test_plain_pairs_keep_first_occurrence_order(self):
        a = atom("b a b", "c d c")
        assert end_constant_form(a) == atom("b a", "c d")

    def test_idempotent(self):
        worked = atom("x2 y3 x2 x4", "y1 y3 y3 y4")
        for a in (worked, atom("x", "y"), atom("x x y", "x y y")):
            assert end_constant_form(end_constant_form(a)) == end_constant_form(a)

    def test_degree_preserved(self):
        assert end_constant_form(atom("x w", "y w", "1/4")).degree.numerator == 1


# ==========================================================================
# the rule table against the tuple-and-atom checker it replaced
# ==========================================================================

# The step checker as it was before each rule got its own function in RULES:
# one if-chain that builds the expected conclusion as an Atom and compares
# whole atoms.  It is the reference the rule table must agree with, reason
# text included.
_REFERENCE_SIGNATURES = {
    Rule.HYP: (0, None),
    Rule.A1: (1, None),
    Rule.A2: (1, None),
    Rule.A3: (1, AppendWitness),
    Rule.A4: (1, None),
    Rule.A5: (1, BlockSwapWitness),
    Rule.A6: (1, SwitchWitness),
    Rule.A7: (1, RaiseWitness),
    Rule.A8: (0, None),
    Rule.PAIRS: (1, None),
    Rule.DOM: (1, None),
}


def reference_check_step(step, assumptions, prior):
    """(ok, reason) of the atom-building checker."""
    signature = _REFERENCE_SIGNATURES.get(step.rule)
    if signature is None:
        return False, f"unknown rule {step.rule!r}"
    expected, witness_class = signature
    if len(step.premises) != expected:
        return False, f"{step.rule.value} takes {expected} premise(s)"
    for ref in step.premises:
        if not 1 <= ref < step.index:
            return False, f"premise reference {ref} is not an earlier step"
        if ref > len(prior):
            return False, f"premise reference {ref} has no recorded conclusion"
    concl = step.conclusion
    prem = prior[step.premises[0] - 1] if step.premises else None
    w = step.witness
    if witness_class is None:
        if w is not None:
            return False, f"{step.rule.value} takes no witness"
    elif not isinstance(w, witness_class):
        return False, f"{step.rule.value} needs a {witness_class.kind} witness"

    def fail(reason):
        return False, reason

    if step.rule == Rule.HYP:
        if concl not in assumptions:
            return fail("HYP conclusion is not an assumption")
    elif step.rule == Rule.A1:
        if prem.left != prem.right:
            return fail("A1 premise sides must be the same tuple")
        if prem.degree >= 1:
            return fail("A1 premise degree must be below 1")
        if concl.degree != 0:
            return fail("A1 conclusion degree must be 0")
    elif step.rule == Rule.A2:
        if concl != swapped(prem):
            return fail("A2 conclusion must swap the premise sides")
    elif step.rule == Rule.A3:
        if len(w.left) != len(w.right):
            return fail("A3 appended tuples must have equal length")
        if concl != Atom(prem.left + w.left, prem.right + w.right, prem.degree):
            return fail("A3 conclusion must append the witness tuples")
    elif step.rule == Rule.A4:
        b = prem.arity - concl.arity
        if b < 0:
            return fail("A4 conclusion cannot be longer than its premise")
        if concl.degree != prem.degree:
            return fail("A4 preserves the degree")
        if prem.left != concl.left + concl.left[len(concl.left) - b :]:
            return fail("A4 premise left side must repeat the trailing block")
        if prem.right != concl.right + concl.right[len(concl.right) - b :]:
            return fail("A4 premise right side must repeat the trailing block")
    elif step.rule == Rule.A5:
        a, b1, b2 = w.prefix, w.first, w.second
        if min(a, b1, b2) < 0 or a + b1 + b2 != prem.arity:
            return fail("A5 split must partition the premise sides")
        cut1, cut2 = a + b1, a + b1 + b2
        swapped_left = prem.left[:a] + prem.left[cut1:cut2] + prem.left[a:cut1]
        swapped_right = prem.right[:a] + prem.right[cut1:cut2] + prem.right[a:cut1]
        if concl != Atom(swapped_left, swapped_right, prem.degree):
            return fail("A5 conclusion must swap the witnessed blocks")
    elif step.rule == Rule.A6:
        h = len(w.fresh)
        if h < 1:
            return fail("A6 fresh tuple must be nonempty")
        if w.shared < 0 or prem.arity != h + w.shared:
            return fail("A6 shared length must complete the premise arity")
        if prem.left[h:] != prem.right[h:]:
            return fail("A6 premise must end in a shared block")
        if concl != Atom(w.fresh + w.fresh, prem.left[:h] + prem.right[:h], prem.degree):
            return fail("A6 conclusion must be fresh-fresh over the moved sides")
    elif step.rule == Rule.A7:
        if w.degree != concl.degree:
            return fail("A7 witness degree must match the conclusion")
        if concl.degree < prem.degree:
            return fail("A7 can only raise the degree")
        if (concl.left, concl.right) != (prem.left, prem.right):
            return fail("A7 preserves the sides")
    elif step.rule == Rule.A8:
        if concl.degree != 1:
            return fail("A8 conclusion degree must be 1")
    elif step.rule == Rule.PAIRS:
        if concl.degree != prem.degree:
            return fail("PAIRS preserves the degree")
        concl_pairs = sorted(set(zip(concl.left, concl.right)))
        if concl_pairs != sorted(set(zip(prem.left, prem.right))):
            return fail("PAIRS conclusion must have the premise's pair set")
    elif step.rule == Rule.DOM:
        if prem.degree > concl.degree:
            return fail("DOM cannot lower the degree")
        if not conflicts(prem, generic_pair(concl)):
            return fail("DOM premise must conflict on the conclusion's generic pair")
    return True, None


def outcome_of(step, assumptions=(), prior=()):
    reason = check_step(step, assumptions, prior)
    return reason is None, reason


P2 = atom("x y", "u v", "1/4")
P3 = atom("x y z", "u v w", "1/4")
NO_WITNESS = RaiseWitness(Fraction(1, 3))

# (rule, prior, assumptions, conclusion, witness, reason): one valid step
# per rule, then the same step with one side entry, the degree or the
# witness changed, each with the reason the checker gave before the rule
# table
RULE_CASES = [
    (Rule.HYP, (), (P2,), P2, None, None),
    (Rule.HYP, (), (P2,), atom("x y", "u w", "1/4"), None, "HYP conclusion is not an assumption"),
    (Rule.HYP, (), (P2,), atom("x y", "u v", "1/3"), None, "HYP conclusion is not an assumption"),
    (Rule.HYP, (), (P2,), P2, NO_WITNESS, "HYP takes no witness"),
    (Rule.A1, (atom("x y", "x y", "1/4"),), (), atom("a", "b"), None, None),
    (Rule.A1, (atom("x y", "x z", "1/4"),), (), atom("a", "b"), None,
     "A1 premise sides must be the same tuple"),
    (Rule.A1, (atom("x y", "x y", 1),), (), atom("a", "b"), None,
     "A1 premise degree must be below 1"),
    (Rule.A1, (atom("x y", "x y", "1/4"),), (), atom("a", "b", "1/4"), None,
     "A1 conclusion degree must be 0"),
    (Rule.A1, (atom("x y", "x y", "1/4"),), (), atom("a", "b"), NO_WITNESS, "A1 takes no witness"),
    (Rule.A2, (P2,), (), atom("u v", "x y", "1/4"), None, None),
    (Rule.A2, (P2,), (), atom("u v", "x z", "1/4"), None, "A2 conclusion must swap the premise sides"),
    (Rule.A2, (P2,), (), atom("u v", "x y", "1/3"), None, "A2 conclusion must swap the premise sides"),
    (Rule.A2, (P2,), (), atom("u v", "x y", "1/4"), NO_WITNESS, "A2 takes no witness"),
    (Rule.A3, (P2,), (), atom("x y a", "u v b", "1/4"), AppendWitness(("a",), ("b",)), None),
    (Rule.A3, (P2,), (), atom("x y a", "u v c", "1/4"), AppendWitness(("a",), ("b",)),
     "A3 conclusion must append the witness tuples"),
    (Rule.A3, (P2,), (), atom("x y a", "u v b", "1/3"), AppendWitness(("a",), ("b",)),
     "A3 conclusion must append the witness tuples"),
    (Rule.A3, (P2,), (), atom("x y a", "u v b", "1/4"), AppendWitness(("a",), ("c",)),
     "A3 conclusion must append the witness tuples"),
    (Rule.A3, (P2,), (), atom("x y a", "u v b", "1/4"), AppendWitness(("a",), ()),
     "A3 appended tuples must have equal length"),
    (Rule.A3, (P2,), (), atom("x y a", "u v b", "1/4"), NO_WITNESS, "A3 needs a append witness"),
    (Rule.A4, (atom("x y y", "u v v", "1/4"),), (), P2, None, None),
    (Rule.A4, (atom("x y y", "u v v", "1/4"),), (), atom("x z", "u v", "1/4"), None,
     "A4 premise left side must repeat the trailing block"),
    (Rule.A4, (atom("x y y", "u v v", "1/4"),), (), atom("x y", "u w", "1/4"), None,
     "A4 premise right side must repeat the trailing block"),
    (Rule.A4, (atom("x y y", "u v v", "1/4"),), (), atom("x y", "u v", "1/3"), None,
     "A4 preserves the degree"),
    (Rule.A4, (P2,), (), P3, None, "A4 conclusion cannot be longer than its premise"),
    (Rule.A4, (atom("x y y", "u v v", "1/4"),), (), P2, NO_WITNESS, "A4 takes no witness"),
    (Rule.A5, (P3,), (), atom("y z x", "v w u", "1/4"), BlockSwapWitness(0, 1, 2), None),
    (Rule.A5, (P3,), (), atom("y z x", "v w v", "1/4"), BlockSwapWitness(0, 1, 2),
     "A5 conclusion must swap the witnessed blocks"),
    (Rule.A5, (P3,), (), atom("y z x", "v w u", "1/3"), BlockSwapWitness(0, 1, 2),
     "A5 conclusion must swap the witnessed blocks"),
    (Rule.A5, (P3,), (), atom("y z x", "v w u", "1/4"), BlockSwapWitness(1, 1, 1),
     "A5 conclusion must swap the witnessed blocks"),
    (Rule.A5, (P3,), (), atom("y z x", "v w u", "1/4"), BlockSwapWitness(0, 1, 1),
     "A5 split must partition the premise sides"),
    (Rule.A5, (P3,), (), atom("y z x", "v w u", "1/4"), BlockSwapWitness(-1, 2, 2),
     "A5 split must partition the premise sides"),
    (Rule.A6, (atom("x y w", "u v w", "1/4"),), (), atom("a b a b", "x y u v", "1/4"),
     SwitchWitness(1, ("a", "b")), None),
    (Rule.A6, (atom("x y w", "u v w", "1/4"),), (), atom("a b a b", "x y u w", "1/4"),
     SwitchWitness(1, ("a", "b")), "A6 conclusion must be fresh-fresh over the moved sides"),
    (Rule.A6, (atom("x y w", "u v w", "1/4"),), (), atom("a b a b", "x y u v", "1/3"),
     SwitchWitness(1, ("a", "b")), "A6 conclusion must be fresh-fresh over the moved sides"),
    (Rule.A6, (atom("x y w", "u v w", "1/4"),), (), atom("a b a b", "x y u v", "1/4"),
     SwitchWitness(1, ("a", "c")), "A6 conclusion must be fresh-fresh over the moved sides"),
    (Rule.A6, (atom("x y w", "u v w", "1/4"),), (), atom("a b a b", "x y u v", "1/4"),
     SwitchWitness(2, ("a", "b")), "A6 shared length must complete the premise arity"),
    (Rule.A6, (atom("x y w", "u v w", "1/4"),), (), atom("a b a b", "x y u v", "1/4"),
     SwitchWitness(3, ()), "A6 fresh tuple must be nonempty"),
    (Rule.A6, (atom("x y w", "u v w", "1/4"),), (), atom("a a", "x u", "1/4"),
     SwitchWitness(2, ("a",)), "A6 premise must end in a shared block"),
    (Rule.A7, (P2,), (), atom("x y", "u v", "1/3"), RaiseWitness(Fraction(1, 3)), None),
    (Rule.A7, (P2,), (), atom("x y", "u w", "1/3"), RaiseWitness(Fraction(1, 3)),
     "A7 preserves the sides"),
    (Rule.A7, (P2,), (), atom("x y", "u v", "1/2"), RaiseWitness(Fraction(1, 3)),
     "A7 witness degree must match the conclusion"),
    (Rule.A7, (P2,), (), atom("x y", "u v", "1/3"), RaiseWitness(Fraction(1, 2)),
     "A7 witness degree must match the conclusion"),
    (Rule.A7, (P2,), (), atom("x y", "u v", "1/5"), RaiseWitness(Fraction(1, 5)),
     "A7 can only raise the degree"),
    (Rule.A7, (P2,), (), atom("x y", "u v", "1/3"), None, "A7 needs a raise witness"),
    (Rule.A8, (), (), atom("x", "y", 1), None, None),
    (Rule.A8, (), (), atom("x", "y", "1/4"), None, "A8 conclusion degree must be 1"),
    (Rule.A8, (), (), atom("x", "y", 1), NO_WITNESS, "A8 takes no witness"),
    (Rule.PAIRS, (atom("x y x", "u v u", "1/4"),), (), atom("y x", "v u", "1/4"), None, None),
    (Rule.PAIRS, (atom("x y x y", "u v u v", "1/4"),), (), P2, None, None),
    (Rule.PAIRS, (P2,), (), atom("y x y", "v u v", "1/4"), None, None),
    (Rule.PAIRS, (P2,), (), P2, None, None),
    (Rule.PAIRS, (atom("x y x", "u v u", "1/4"),), (), atom("y", "v", "1/4"), None,
     "PAIRS conclusion must have the premise's pair set"),
    (Rule.PAIRS, (P2,), (), P3, None, "PAIRS conclusion must have the premise's pair set"),
    (Rule.PAIRS, (atom("x y x", "u v u", "1/4"),), (), atom("x y", "u w", "1/4"), None,
     "PAIRS conclusion must have the premise's pair set"),
    (Rule.PAIRS, (atom("x y x", "u v u", "1/4"),), (), atom("x y", "v u", "1/4"), None,
     "PAIRS conclusion must have the premise's pair set"),
    (Rule.PAIRS, (atom("x y x", "u v u", "1/4"),), (), atom("x y", "u v", "1/3"), None, "PAIRS preserves the degree"),
    (Rule.PAIRS, (atom("x y x", "u v u", "1/4"),), (), atom("x y", "u w", "1/3"), None, "PAIRS preserves the degree"),
    (Rule.PAIRS, (atom("x y x", "u v u", "1/4"),), (), P2, NO_WITNESS, "PAIRS takes no witness"),
    (Rule.PAIRS, (atom("x y x", "u v u", "1/4"),), (), P2, AppendWitness((), ()), "PAIRS takes no witness"),
    (Rule.DOM, (atom("x", "y", "1/4"),), (), atom("x z", "y w", "1/3"), None, None),
    (Rule.DOM, (atom("x", "y", "1/4"),), (), atom("x z", "v w", "1/3"), None,
     "DOM premise must conflict on the conclusion's generic pair"),
    (Rule.DOM, (atom("x", "y", "1/4"),), (), atom("x z", "y w"), None, "DOM cannot lower the degree"),
    (Rule.DOM, (atom("x", "y", "1/4"),), (), atom("x z", "y w", "1/3"), NO_WITNESS,
     "DOM takes no witness"),
]


class TestRuleTable:
    @pytest.mark.parametrize("rule, prior, assumptions, conclusion, witness, reason", RULE_CASES)
    def test_one_change_gives_the_reference_reason(
        self, rule, prior, assumptions, conclusion, witness, reason
    ):
        step = Step(len(prior) + 1, rule, (1,) if prior else (), conclusion, witness)
        assert outcome_of(step, assumptions, prior) == (reason is None, reason)
        assert reference_check_step(step, assumptions, prior) == (reason is None, reason)

    def test_every_rule_has_a_valid_case(self):
        assert {case[0] for case in RULE_CASES if case[-1] is None} == set(Rule)

    def test_every_reason_is_covered(self):
        covered = {case[-1] for case in RULE_CASES}
        source = inspect.getsource(certificate)
        stated = set(re.findall(r'return "((?:HYP|A\d|PAIRS|DOM) [^"]+)"', source))
        assert len(stated) == 25
        assert stated <= covered

    def test_check_step_builds_no_atom(self, monkeypatch):
        # every valid case again, with atom construction disabled
        def refuse(*args, **kwargs):
            raise AssertionError("check_step built an atom")

        cases = [case for case in RULE_CASES if case[-1] is None]
        monkeypatch.setattr(Atom, "__post_init__", refuse)
        monkeypatch.setattr(Atom, "_unchecked", refuse)
        for rule, prior, assumptions, conclusion, witness, _ in cases:
            step = Step(len(prior) + 1, rule, (1,) if prior else (), conclusion, witness)
            assert check_step(step, assumptions, prior) is None


def set_at(payload, path, value):
    *keys, last = path
    for key in keys:
        payload = payload[key]
    payload[last] = value


class TestEmptyVariableNames:
    """A witness holding an empty name is a rejected step, and the
    certificate decoder refuses it outright."""

    HYP_A3 = Derivation(
        (X_Y,),
        (
            Step(1, Rule.HYP, (), X_Y),
            Step(2, Rule.A3, (1,), atom("x a", "y b"), AppendWitness(("a",), ("b",))),
        ),
    )

    @pytest.mark.parametrize(
        "step",
        [
            Step(2, Rule.A3, (1,), atom("x a", "y b"), AppendWitness(("",), ("",))),
            Step(2, Rule.A3, (1,), atom("x a", "y b"), AppendWitness(("a",), ("",))),
            Step(2, Rule.A6, (1,), atom("z z", "x y"), SwitchWitness(0, ("",))),
        ],
    )
    def test_check_step_rejects(self, step):
        assert check_step(step, (X_Y,), (X_Y,)) in {
            "A3 conclusion must append the witness tuples",
            "A6 conclusion must be fresh-fresh over the moved sides",
        }

    def test_check_derivation_rejects(self):
        d = Derivation(
            (X_Y,),
            (
                Step(1, Rule.HYP, (), X_Y),
                Step(2, Rule.A3, (1,), atom("x a", "y b"), AppendWitness(("",), ("",))),
            ),
        )
        result = check_derivation(d)
        assert (result.ok, result.failing_step) == (False, 2)

    @pytest.mark.parametrize(
        "path",
        [
            ("steps", 1, "witness", "left"),
            ("steps", 1, "conclusion", "right"),
            ("assumptions", 0, "left"),
        ],
    )
    def test_decoder_rejects(self, path):
        payload = derivation_to_json(self.HYP_A3)
        assert check_derivation(derivation_from_json(payload)).ok
        set_at(payload, path, [""])
        with pytest.raises(ParseError, match="variable name expected, got ''"):
            derivation_from_json(payload)

    def test_decoder_rejects_an_empty_fresh_name(self):
        prem = atom("x w", "y w")
        payload = derivation_to_json(
            Derivation(
                (prem,),
                (
                    Step(1, Rule.HYP, (), prem),
                    Step(2, Rule.A6, (1,), atom("z z", "x y"), SwitchWitness(1, ("z",))),
                ),
            )
        )
        assert check_derivation(derivation_from_json(payload)).ok
        payload["steps"][1]["witness"]["fresh"] = [""]
        with pytest.raises(ParseError, match="^step 2, witness, fresh: variable name"):
            derivation_from_json(payload)


class TestDecoderErrorPlaces:
    """Each decoder error starts with the step (or assumption) and field
    it is about."""

    PREM = atom("x", "y")

    def payload(self):
        return derivation_to_json(
            Derivation(
                (self.PREM,),
                (
                    Step(1, Rule.HYP, (), self.PREM),
                    Step(2, Rule.A3, (1,), atom("x w", "y w"), AppendWitness(("w",), ("w",))),
                ),
            )
        )

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("steps", 1, "premises"), [True], "step 2, premises: integer expected, got True"),
            (("steps", 1, "witness", "left"), True,
             "step 2, witness, left: list expected, got True"),
            (("steps", 0, "rule"), "A9", "step 1, rule: 'A9' is not a valid Rule"),
            (("steps", 1, "conclusion", "left"), ["x"],
             "step 2, conclusion: malformed Atom object: side arities differ: 1 vs 2"),
            (("assumptions", 0, "degree"), "2",
             "assumption 1, degree: degree out of range [0, 1]: 2"),
            (("assumptions", 0, "right"), "yww",
             "assumption 1, right: list expected, got 'yww'"),
            (("steps", 1), 3, "step 2: Step object expected, got 3"),
            (("steps",), {}, "steps: list expected, got {}"),
        ],
    )
    def test_message_names_the_place(self, path, value, message):
        payload = self.payload()
        set_at(payload, path, value)
        with pytest.raises(ParseError) as info:
            derivation_from_json(payload)
        assert str(info.value) == message

    def test_missing_field_names_its_step(self):
        payload = self.payload()
        del payload["steps"][1]["rule"]
        with pytest.raises(ParseError) as info:
            derivation_from_json(payload)
        assert str(info.value) == "step 2: Step object missing field 'rule'"


# ---------------------------------------------------------------- property

VARS = st.sampled_from("abc")
DEGREES = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
SMALL = st.integers(-1, 4)


def sides(arity):
    return st.tuples(*[VARS] * arity)


@st.composite
def atoms(draw):
    n = draw(st.integers(1, 4))
    return Atom(draw(sides(n)), draw(sides(n)), draw(DEGREES))


@st.composite
def premises(draw):
    """Atoms some rule can fire on: random, ending in a repeated block (A4),
    with a repeated pair (PAIRS) or ending in a shared block (A6)."""
    base = draw(atoms())
    shape = draw(st.sampled_from(["random", "repeat", "duplicate", "shared"]))
    if shape == "repeat" and base.arity < 4:
        b = draw(st.integers(1, min(base.arity, 4 - base.arity)))
        return Atom(base.left + base.left[-b:], base.right + base.right[-b:], base.degree)
    if shape == "duplicate" and base.arity < 4:
        i = draw(st.integers(0, base.arity - 1))
        return Atom(base.left + base.left[i : i + 1], base.right + base.right[i : i + 1], base.degree)
    if shape == "shared" and base.arity > 1:
        h = draw(st.integers(1, base.arity - 1))
        return Atom(base.left, base.left[:h] + base.right[h:], base.degree)
    return base


def var_tuples(min_size=0):
    return st.lists(VARS, min_size=min_size, max_size=3).map(tuple)


WITNESSES = {
    AppendWitness: st.builds(AppendWitness, var_tuples(), var_tuples()),
    BlockSwapWitness: st.builds(BlockSwapWitness, SMALL, SMALL, SMALL),
    SwitchWitness: st.builds(SwitchWitness, SMALL, var_tuples()),
    RaiseWitness: st.builds(RaiseWitness, DEGREES),
}


def expected_conclusion(rule, prem, w, assumptions, draw):
    """The conclusion a valid step would have, where one exists."""
    if rule == Rule.HYP:
        return draw(st.sampled_from(assumptions)) if assumptions else None
    if rule in (Rule.A1, Rule.A8):
        n = draw(st.integers(1, 4))
        return Atom(draw(sides(n)), draw(sides(n)), Fraction(int(rule == Rule.A8)))
    if prem is None:
        return None
    left, right, d = prem.left, prem.right, prem.degree
    n = len(left)
    if rule == Rule.A2:
        return Atom(right, left, d)
    if rule == Rule.A3 and isinstance(w, AppendWitness) and len(w.left) == len(w.right):
        return Atom(left + w.left, right + w.right, d)
    if rule == Rule.A4:
        b = draw(st.integers(0, n // 2))
        return Atom(left[: n - b], right[: n - b], d)
    if rule == Rule.A5 and isinstance(w, BlockSwapWitness):
        a, b1, b2 = w.prefix, w.first, w.second
        if min(a, b1, b2) >= 0 and a + b1 + b2 == n:
            c1, c2 = a + b1, n
            return Atom(
                left[:a] + left[c1:c2] + left[a:c1], right[:a] + right[c1:c2] + right[a:c1], d
            )
    if rule == Rule.A6 and isinstance(w, SwitchWitness) and w.fresh:
        h = len(w.fresh)
        if h <= n:
            return Atom(w.fresh + w.fresh, left[:h] + right[:h], d)
    if rule == Rule.A7 and isinstance(w, RaiseWitness):
        return Atom(left, right, w.degree)
    if rule == Rule.PAIRS and draw(st.booleans()):
        # the premise's pairs reordered, duplicated or with repeats dropped
        pairs = list(dict.fromkeys(zip(left, right)))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4 - len(pairs)))
        pairs = draw(st.permutations(pairs))
        return Atom(tuple(a for a, _ in pairs), tuple(b for _, b in pairs), d)
    if rule == Rule.DOM:
        extra = draw(var_tuples())
        return Atom(left + extra, right + extra[::-1], draw(DEGREES))
    return None


def changed(draw, concl):
    """concl with one side entry or its degree changed, or as it is."""
    how = draw(st.sampled_from(["none", "none", "entry", "degree"]))
    if how == "entry":
        on_left = draw(st.booleans())
        side = list(concl.left if on_left else concl.right)
        i = draw(st.integers(0, len(side) - 1))
        side[i] = draw(VARS)
        side = tuple(side)
        return Atom(side, concl.right, concl.degree) if on_left else Atom(concl.left, side, concl.degree)
    if how == "degree":
        return Atom(concl.left, concl.right, draw(DEGREES))
    return concl


def fitting_witness(draw, rule, prem):
    """A witness under which some conclusion of prem is valid, if one
    exists for the rule."""
    n = prem.arity
    if rule == Rule.A5:
        a = draw(st.integers(0, n))
        b1 = draw(st.integers(0, n - a))
        return BlockSwapWitness(a, b1, n - a - b1)
    if rule == Rule.A6:
        shared = [h for h in range(1, n + 1) if prem.left[h:] == prem.right[h:]]
        h = draw(st.sampled_from(shared))
        return SwitchWitness(n - h, draw(sides(h)))
    return None


@st.composite
def steps(draw):
    """(step, assumptions, prior) on arity <= 4, mostly one change away
    from a valid step."""
    prior = tuple(draw(st.lists(premises(), min_size=1, max_size=2)))
    assumptions = tuple(draw(st.lists(atoms(), max_size=2))) + prior[: draw(st.integers(0, 1))]
    rule = draw(st.sampled_from(list(Rule)))
    count, witness_class = _REFERENCE_SIGNATURES[rule]
    index = len(prior) + 1
    refs = tuple(draw(st.integers(1, len(prior))) for _ in range(count))
    refs = draw(st.sampled_from([refs] * 8 + [(), (index,), (1, 1)]))
    prem = prior[refs[0] - 1] if refs and 1 <= refs[0] <= len(prior) else None
    w = fitting_witness(draw, rule, prem) if prem and draw(st.booleans()) else None
    if w is None:
        kind = draw(st.sampled_from([witness_class] * 12 + [None] + list(WITNESSES)))
        w = None if kind is None else draw(WITNESSES[kind])
    concl = expected_conclusion(rule, prem, w, assumptions, draw)
    if concl is None or draw(st.integers(0, 9)) == 0:
        concl = draw(atoms())
    return Step(index, rule, refs, changed(draw, concl), w), assumptions, prior


class TestAgainstReference:
    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(steps())
    def test_same_outcome_and_reason(self, case):
        step, assumptions, prior = case
        expected = reference_check_step(step, assumptions, prior)
        event(f"{step.rule.value} {'accepted' if expected[0] else 'rejected'}")
        assert outcome_of(step, assumptions, prior) == expected
