"""Derivation checking, macro expansion, serialization, and synthesis."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from exclusion import (
    Atom,
    InternalVerificationError,
    ParseError,
    atom,
    check_derivation,
    decide,
    synthesize,
)
from exclusion.calculus import (
    AppendWitness,
    BlockSwapWitness,
    ContractWitness,
    Derivation,
    PermWitness,
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
    end_constant_form,
    render_derivation,
)

X_Y = atom("x", "y")
GOLDEN = Path(__file__).resolve().parent / "golden" / "derivation_all_witness_kinds.json"


def ok(step, assumptions=(), prior=()):
    outcome = check_step(step, assumptions, prior)
    assert outcome.ok, outcome.reason


def bad(step, assumptions=(), prior=()):
    outcome = check_step(step, assumptions, prior)
    assert not outcome.ok
    assert outcome.reason


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
    def test_perm(self):
        prem = atom("a b c", "p q r")
        ok(
            Step(2, Rule.PERM, (1,), atom("c a b", "r p q"), PermWitness((2, 0, 1))),
            prior=(prem,),
        )

    def test_perm_requires_permutation(self):
        prem = atom("a b", "p q")
        bad(
            Step(2, Rule.PERM, (1,), atom("a a", "p p"), PermWitness((0, 0))),
            prior=(prem,),
        )

    def test_contract(self):
        prem = atom("x y x", "u v u")
        ok(
            Step(2, Rule.CONTRACT, (1,), atom("y x", "v u"), ContractWitness(0, 2)),
            prior=(prem,),
        )

    def test_contract_requires_equal_pairs(self):
        prem = atom("x y", "u v")
        bad(
            Step(2, Rule.CONTRACT, (1,), atom("y", "v"), ContractWitness(0, 1)),
            prior=(prem,),
        )


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
        result = check_derivation(d)
        assert result.ok
        assert result.exact_fragment

    def test_exact_fragment_flag_clears_on_raised_degree(self):
        d = Derivation(
            (X_Y,),
            (
                Step(1, Rule.HYP, (), X_Y),
                Step(
                    2,
                    Rule.A7,
                    (1,),
                    atom("x", "y", "1/4"),
                    RaiseWitness(Fraction(1, 4)),
                ),
            ),
        )
        result = check_derivation(d)
        assert result.ok
        assert not result.exact_fragment

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
# macro expansion: PERM and CONTRACT are admissible
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
    """Rewrite PERM and CONTRACT steps into primitive A4/A5 chains.

    The input must check; the output checks and proves the same goal using
    primitive rules only.  This is the proof that both macro rules are
    admissible, which is why the package can check them on pair sets.
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

    for step in derivation.steps:
        refs = tuple(mapped[r] for r in step.premises)
        if step.rule == Rule.PERM:
            prem = derivation.steps[step.premises[0] - 1].conclusion
            mapped[step.index] = emit_rotation(refs[0], prem, list(step.witness.order))
        elif step.rule == Rule.CONTRACT:
            prem = derivation.steps[step.premises[0] - 1].conclusion
            n = prem.arity
            j, k = step.witness.removed, step.witness.duplicate
            others = [i for i in range(n) if i not in (j, k)]
            last = emit_rotation(refs[0], prem, others + [k, j])
            shuffled = Atom(
                tuple(prem.left[i] for i in others + [k, j]),
                tuple(prem.right[i] for i in others + [k, j]),
                prem.degree,
            )
            dropped = Atom(shuffled.left[:-1], shuffled.right[:-1], prem.degree)
            last = emit(Rule.A4, (last,), dropped, None)
            # restore the surviving positions to their original order
            kept = [i for i in range(n) if i != j]
            current = others + [k]
            target = [current.index(i) for i in kept]
            mapped[step.index] = emit_rotation(last, dropped, target)
        else:
            mapped[step.index] = emit(step.rule, refs, step.conclusion, step.witness)

    return Derivation(derivation.assumptions, tuple(new_steps))


class TestExpandMacros:
    def assert_expansion(self, derivation):
        assert check_derivation(derivation).ok
        expanded = expand_macros(derivation)
        assert check_derivation(expanded).ok
        assert expanded.goal == derivation.goal
        assert all(
            s.rule not in (Rule.PERM, Rule.CONTRACT) for s in expanded.steps
        )
        return expanded

    def test_perm_expands_to_block_swaps(self):
        prem = atom("a b c", "p q r")
        d = Derivation(
            (prem,),
            (
                Step(1, Rule.HYP, (), prem),
                Step(2, Rule.PERM, (1,), atom("c b a", "r q p"), PermWitness((2, 1, 0))),
            ),
        )
        expanded = self.assert_expansion(d)
        assert any(s.rule == Rule.A5 for s in expanded.steps)

    def test_contract_expands_to_rotations_and_a4(self):
        prem = atom("x y x", "u v u")
        d = Derivation(
            (prem,),
            (
                Step(1, Rule.HYP, (), prem),
                Step(2, Rule.CONTRACT, (1,), atom("y x", "v u"), ContractWitness(0, 2)),
            ),
        )
        expanded = self.assert_expansion(d)
        assert any(s.rule == Rule.A4 for s in expanded.steps)

    def test_macro_free_derivation_unchanged(self):
        d = Derivation(
            (X_Y,),
            (
                Step(1, Rule.HYP, (), X_Y),
                Step(2, Rule.A2, (1,), atom("y", "x")),
            ),
        )
        assert expand_macros(d) == d

    def test_identity_perm_collapses(self):
        d = Derivation(
            (X_Y,),
            (
                Step(1, Rule.HYP, (), X_Y),
                Step(2, Rule.PERM, (1,), X_Y, PermWitness((0,))),
            ),
        )
        expanded = self.assert_expansion(d)
        assert expanded.goal == X_Y

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
                Step(
                    2,
                    Rule.PERM,
                    (1,),
                    atom("w1 x1 w1", "w1 y1 w1", "1/4"),
                    PermWitness((1, 0, 2)),
                ),
                Step(
                    3,
                    Rule.CONTRACT,
                    (1,),
                    atom("x1 w1", "y1 w1", "1/4"),
                    ContractWitness(1, 2),
                ),
                Step(
                    4,
                    Rule.A5,
                    (3,),
                    atom("w1 x1", "w1 y1", "1/4"),
                    BlockSwapWitness(0, 1, 1),
                ),
                Step(
                    5,
                    Rule.A7,
                    (3,),
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
        # one derivation using all six witness kinds; a change of key order,
        # kind name or field encoding changes this text
        dup = atom("x1 w1 w1", "y1 w1 w1", "1/4")
        d = Derivation(
            (dup,),
            (
                Step(1, Rule.HYP, (), dup),
                Step(2, Rule.PERM, (1,), atom("w1 x1 w1", "w1 y1 w1", "1/4"), PermWitness((1, 0, 2))),
                Step(3, Rule.CONTRACT, (1,), atom("x1 w1", "y1 w1", "1/4"), ContractWitness(1, 2)),
                Step(4, Rule.A5, (3,), atom("w1 x1", "w1 y1", "1/4"), BlockSwapWitness(0, 1, 1)),
                Step(5, Rule.A7, (3,), atom("x1 w1", "y1 w1", "1/3"), RaiseWitness(Fraction(1, 3))),
                Step(6, Rule.A6, (5,), atom("z1 z1", "x1 y1", "1/3"), SwitchWitness(1, ("z1",))),
                Step(7, Rule.A3, (6,), atom("z1 z1 u", "x1 y1 v", "1/3"), AppendWitness(("u",), ("v",))),
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
            (("steps", 1, "witness", "removed"), True),
            (("steps", 2, "witness", "order"), [True, 0]),
            (("steps", 1, "witness", "duplicate"), 1.0),
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
                    Step(2, Rule.CONTRACT, (1,), atom("x w", "y w"), ContractWitness(1, 2)),
                    Step(3, Rule.PERM, (2,), atom("w x", "w y"), PermWitness((1, 0))),
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
        assert Rule.A3 in rules or Rule.PERM in rules

    def test_subset_swapped(self):
        rules = self.check([atom("y", "x")], atom("x w", "y w").swapped())
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
        assert Rule.CONTRACT in rules
        assert Rule.A6 in rules

    def test_unknown_witness_rejected(self):
        with pytest.raises(ValueError):
            synthesize([], atom("x", "y"), object())


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
        bad(Step(2, Rule.DOM, (1,), self.GOAL), prior=(self.PREMISE.with_degree("1/4"),))

    def test_witness_rejected(self):
        step = Step(2, Rule.DOM, (1,), self.GOAL, RaiseWitness(Fraction(0)))
        bad(step, prior=(self.PREMISE,))

    def test_round_trip(self):
        sigma = [self.PREMISE.with_degree("1/4")]
        goal = self.GOAL.with_degree("1/3")
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


class TestRender:
    def test_lists_assumptions_and_steps(self):
        d = Derivation(
            (X_Y,),
            (
                Step(1, Rule.HYP, (), X_Y),
                Step(2, Rule.A2, (1,), atom("y", "x")),
            ),
        )
        text = render_derivation(d)
        assert "assume" in text
        assert "HYP" in text
        assert "A2" in text
        assert "x | y" in text
