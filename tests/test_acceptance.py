"""Acceptance gate: seven criteria, one PASS/FAIL line each.

The report lines bypass pytest's capture, so they appear in the live
output of any run, interleaved with the progress dots.  Criterion 1 runs
the exhaustive keystone sweep once (248-257 s on a 2-core Xeon with
Python 3.11 and numpy 2.4) and shares its report with criteria 2 and 5.
"""

import random
import statistics
import time
from fractions import Fraction as F

import pytest

from exclusion import (
    Atom,
    UnsupportedDegreeError,
    atom,
    check_derivation,
    decide,
    min_removal,
    parse_atom,
    satisfies,
    synthesize,
)
from exclusion.calculus import (
    AppendWitness,
    BlockSwapWitness,
    Derivation,
    RaiseWitness,
    Rule,
    Step,
    SwitchWitness,
    goal_squares,
)
from exclusion.cli import main as cli_main
from exclusion.counterexample import canonical_satisfying_team, conflicts, generic_pair
from exclusion.errors import EXIT_UNSUPPORTED_DEGREE
from exclusion.model import team_from_rows
from exclusion.semantics import satisfies_all
from exclusion.sweep import keystone_atoms, oracle_spot_check, run_keystone

KEYSTONE_INSTANCES = 9_878_220


@pytest.fixture
def report(pytestconfig):
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def announce(number, ok, detail):
        line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} ({detail})"
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        return ok

    return announce


@pytest.fixture(scope="module")
def keystone():
    return run_keystone()


class TestCriterion1Equivalence:
    def test_decision_matches_oracle_everywhere(self, keystone, report):
        compared, mismatches = oracle_spot_check()
        detail = (
            f"{keystone.instances} instances, "
            f"{keystone.disagreements.count} disagreements, "
            f"{compared} literal-oracle replays with "
            f"{mismatches.count} mismatches, sweep {keystone.elapsed:.1f}s "
            f"(set-up {keystone.setup_s:.1f}s)"
        )
        ok = (
            keystone.instances == KEYSTONE_INSTANCES
            and keystone.disagreements.count == 0
            and keystone.sample_mismatches.count == 0
            and keystone.elapsed < 600.0
            and compared > 0
            and mismatches.count == 0
        )
        assert report(1, ok, detail), detail


class TestCriterion2Certificates:
    def test_every_verdict_has_a_checked_certificate(self, keystone, report):
        detail = (
            f"{keystone.true_classes} derivations and "
            f"{keystone.false_classes} counterexamples verified, "
            f"{keystone.derivation_failures.count}+"
            f"{keystone.counterexample_failures.count} failures"
        )
        ok = (
            keystone.derivation_failures.count == 0
            and keystone.counterexample_failures.count == 0
            and keystone.true_classes + keystone.false_classes == keystone.classes
            and keystone.classes > 0
        )
        assert report(2, ok, detail), detail


POOL = ("a", "b", "c", "d", "e", "f")
PREMISE_DEGREES = (F(0), F(1, 4), F(1, 3))
RAISE_LADDER = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))


def rand_tuple(rng, size):
    return tuple(rng.choice(POOL) for _ in range(size))


def rand_atom(rng, max_arity=3, degrees=PREMISE_DEGREES):
    size = rng.randint(1, max_arity)
    return Atom(rand_tuple(rng, size), rand_tuple(rng, size), rng.choice(degrees))


def rand_team(rng, atoms):
    variables = tuple(sorted({v for a in atoms for v in a.left + a.right}))
    rows = rng.randint(0, 6)
    span = rng.choice((2, 3, 4, 8))
    data = {tuple(str(rng.randrange(span)) for _ in variables) for _ in range(rows)}
    return team_from_rows(variables, data)


def gen_a1(rng):
    side = rand_tuple(rng, rng.randint(1, 3))
    prem = Atom(side, side, rng.choice(PREMISE_DEGREES))
    return prem, rand_atom(rng, degrees=(F(0),)), None


def gen_a2(rng):
    prem = rand_atom(rng)
    return prem, prem.swapped(), None


def gen_a3(rng):
    prem = rand_atom(rng, max_arity=2)
    extra = rng.randint(0, 2)
    wit = AppendWitness(rand_tuple(rng, extra), rand_tuple(rng, extra))
    concl = Atom(prem.left + wit.left, prem.right + wit.right, prem.degree)
    return prem, concl, wit


def gen_a4(rng):
    concl = rand_atom(rng)
    block = rng.randint(0, concl.arity)
    prem = Atom(
        concl.left + concl.left[concl.arity - block :],
        concl.right + concl.right[concl.arity - block :],
        concl.degree,
    )
    return prem, concl, None


def gen_a5(rng):
    prem = rand_atom(rng, max_arity=4)
    cut1, cut2 = sorted(rng.randint(0, prem.arity) for _ in range(2))
    wit = BlockSwapWitness(cut1, cut2 - cut1, prem.arity - cut2)
    concl = Atom(
        prem.left[:cut1] + prem.left[cut2:] + prem.left[cut1:cut2],
        prem.right[:cut1] + prem.right[cut2:] + prem.right[cut1:cut2],
        prem.degree,
    )
    return prem, concl, wit


def gen_a6(rng):
    moved = rng.randint(1, 2)
    shared = rand_tuple(rng, rng.randint(0, 2))
    left_head, right_head = rand_tuple(rng, moved), rand_tuple(rng, moved)
    prem = Atom(left_head + shared, right_head + shared, rng.choice(PREMISE_DEGREES))
    fresh = rand_tuple(rng, moved)
    wit = SwitchWitness(len(shared), fresh)
    concl = Atom(fresh + fresh, left_head + right_head, prem.degree)
    return prem, concl, wit


def gen_a7(rng):
    prem = rand_atom(rng)
    raised = rng.choice([d for d in RAISE_LADDER if d >= prem.degree])
    return prem, Atom(prem.left, prem.right, raised), RaiseWitness(raised)


def gen_a8(rng):
    return None, rand_atom(rng, degrees=(F(1),)), None


def gen_dom(rng):
    while True:
        prem = rand_atom(rng, max_arity=2)
        concl = rand_atom(rng, max_arity=4, degrees=RAISE_LADDER)
        if prem.degree <= concl.degree and conflicts(prem, generic_pair(concl)):
            return prem, concl, None


RULE_GENERATORS = [
    (Rule.A1, gen_a1),
    (Rule.A2, gen_a2),
    (Rule.A3, gen_a3),
    (Rule.A4, gen_a4),
    (Rule.A5, gen_a5),
    (Rule.A6, gen_a6),
    (Rule.A7, gen_a7),
    (Rule.A8, gen_a8),
    (Rule.DOM, gen_dom),
]

TRIALS_PER_RULE = 10_000


class TestCriterion3RuleSoundness:
    def test_no_rule_admits_a_countermodel(self, report):
        unsound = []
        exercised = {}
        for offset, (rule, generator) in enumerate(RULE_GENERATORS):
            rng = random.Random(3000 + offset)
            premise_true = 0
            for _ in range(TRIALS_PER_RULE):
                prem, concl, wit = generator(rng)
                if prem is None:
                    derivation = Derivation((), (Step(1, rule, (), concl, wit),))
                    atoms = (concl,)
                else:
                    derivation = Derivation(
                        (prem,),
                        (
                            Step(1, Rule.HYP, (), prem),
                            Step(2, rule, (1,), concl, wit),
                        ),
                    )
                    atoms = (prem, concl)
                outcome = check_derivation(derivation)
                assert outcome.ok, f"{rule.value} generator drift: {outcome.reason}"
                team = rand_team(rng, atoms)
                if prem is not None and not satisfies(team, prem):
                    continue
                premise_true += 1
                if not satisfies(team, concl):
                    unsound.append((rule.value, prem, concl, team))
            exercised[rule.value] = premise_true
        thin = {r: n for r, n in exercised.items() if n < 500}
        detail = (
            f"{len(RULE_GENERATORS)} rules x {TRIALS_PER_RULE} trials, premise-true counts "
            f"{min(exercised.values())}..{max(exercised.values())}, "
            f"{len(unsound)} violations"
        )
        ok = not unsound and not thin
        assert report(3, ok, detail), (detail, unsound[:3], thin)


class TestCriterion4GoldenVectors:
    def test_reference_vectors_reproduce(self, report):
        failures = []

        verdict = decide(
            (atom("x1 w1 w2", "y1 w1 w2"),), atom("z1 z1", "x1 y1")
        )
        if not verdict.holds:
            failures.append("arity-change implication not decided TRUE")
        else:
            derivation = synthesize(
                (atom("x1 w1 w2", "y1 w1 w2"),), atom("z1 z1", "x1 y1"), verdict.witness
            )
            rules = {step.rule for step in derivation.steps}
            if Rule.A6 not in rules or not check_derivation(derivation).ok:
                failures.append("arity-change derivation lacks the switch rule")

        worked = atom("x2 y3 x2 x4", "y1 y3 y3 y4")
        # its pairs (x2, y1), (y3, y3), (x2, y3), (x4, y4), reordered
        reordered = atom("x4 x2 y3 x2", "y4 y3 y3 y1")
        derivation = synthesize((worked,), reordered, decide((worked,), reordered).witness)
        if Rule.DOM in {step.rule for step in derivation.steps}:
            failures.append("pair set of the worked example is off")
        # partner squares: x2 pairs with y1 and y3 at left positions 0 and 2,
        # y3 with itself at 1; y3 pairs with y3 and x2 at right positions 1, 2
        (_, left), (_, right) = goal_squares(worked)
        if left["y1"] != 0b0101 or left["y3"] != 0b0111 or right["y3"] != 0b0110:
            failures.append("correspondence sets of the worked example are off")

        pair_team = team_from_rows(("x", "y"), {("0", "0"), ("1", "2")})
        quad_team = team_from_rows(
            ("x", "u", "y", "v"),
            {("0", "1", "0", "1"), ("0", "2", "0", "2"), ("1", "2", "2", "1")},
        )
        if min_removal(pair_team, atom("x", "y")) != 1 or not satisfies(
            pair_team, atom("x", "y", "1/2")
        ):
            failures.append("two-row table removal count is off")
        if min_removal(quad_team, atom("x u", "y v")) != 2 or satisfies(
            quad_team, atom("x u", "y v", "1/2")
        ):
            failures.append("three-row table removal count is off")

        atoms = keystone_atoms()
        rng = random.Random(404)
        sampled = 0
        for _ in range(500):
            sigma = tuple(
                atoms[rng.randrange(len(atoms))] for _ in range(rng.randint(1, 2))
            )
            if any(a.is_contradictory() for a in sigma):
                continue
            sampled += 1
            team = canonical_satisfying_team(sigma)
            if team.size != 1 or not satisfies_all(team, sigma):
                failures.append(f"fresh-value team fails for {sigma}")
                break
        detail = f"4 vector families, {sampled} fresh-value draws, {len(failures)} failures"
        ok = not failures and sampled > 300
        assert report(4, ok, detail), (detail, failures)


class TestCriterion5DomainBounds:
    def test_counterexample_values_fit_the_bound(self, keystone, report):
        detail = (
            f"{keystone.false_classes} constructed teams, "
            f"{keystone.bound_violations.count} over the value bound"
        )
        ok = keystone.bound_violations.count == 0 and keystone.false_classes > 0
        assert report(5, ok, detail), detail


def performance_sigma(rng, count, arity, variables):
    pool = [f"v{i}" for i in range(variables)]
    sigma = []
    for _ in range(count):
        left = tuple(rng.choice(pool) for _ in range(arity))
        right = tuple(rng.choice(pool) for _ in range(arity))
        sigma.append(Atom(left, right, rng.choice(PREMISE_DEGREES)))
    return pool, tuple(sigma)


def median_decide_time(rng, sigma, pool, arity, runs):
    times = []
    for _ in range(runs):
        goal = Atom(
            tuple(rng.choice(pool) for _ in range(arity)),
            tuple(rng.choice(pool) for _ in range(arity)),
            F(1, 3),
        )
        start = time.perf_counter()
        decide(sigma, goal)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class TestCriterion6Performance:
    def test_large_instances_decide_fast(self, report):
        rng = random.Random(606)
        pool, sigma = performance_sigma(rng, 1000, 10, 60)
        median = median_decide_time(rng, sigma, pool, 10, runs=20)

        ladder = {}
        for arity in (5, 10, 20, 40):
            lrng = random.Random(700 + arity)
            lpool, lsigma = performance_sigma(lrng, 1000, arity, 60)
            ladder[arity] = median_decide_time(lrng, lsigma, lpool, arity, runs=5)
        growth = ladder[40] / ladder[5]
        detail = (
            f"1000-premise median {median * 1000:.1f} ms, "
            f"arity 5->40 growth x{growth:.1f} (quadratic predicts x64)"
        )
        ok = median < 1.0 and ladder[40] <= 64 * ladder[5] * 2
        assert report(6, ok, detail), detail


class TestCriterion7DegreeGuard:
    def test_half_open_band_rejected_and_one_vacuous(self, tmp_path, capsys, report):
        failures = []
        sigma_path = tmp_path / "sigma.txt"
        sigma_path.write_text("")
        for text in ("1/2", "2/3", "3/4", "99/100"):
            with pytest.raises(UnsupportedDegreeError):
                decide((), parse_atom(f"excl[{text}](x1 ; y1)"))
            code = cli_main(["check", str(sigma_path), f"excl[{text}](x1 ; y1)"])
            captured = capsys.readouterr()
            if code != EXIT_UNSUPPORTED_DEGREE:
                failures.append(f"degree {text} exited {code}")
            if "holds:" in captured.out:
                failures.append(f"degree {text} still printed a verdict")

        verdict = decide((), atom("x1", "y1", 1))
        derivation = synthesize((), atom("x1", "y1", 1), verdict.witness)
        if not verdict.holds:
            failures.append("degree 1 not decided TRUE")
        if [s.rule for s in derivation.steps] != [Rule.A8]:
            failures.append("degree 1 certificate is not a single final-rule step")
        if not check_derivation(derivation).ok:
            failures.append("degree 1 certificate fails its check")
        code = cli_main(["check", str(sigma_path), "excl[1](x1 ; y1)"])
        captured = capsys.readouterr()
        if code != 0 or "holds: true" not in captured.out:
            failures.append("CLI does not accept a degree-1 goal")

        detail = f"4 rejected degrees, degree-1 accepted, {len(failures)} failures"
        ok = not failures
        assert report(7, ok, detail), (detail, failures)
