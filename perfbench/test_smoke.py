"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at minimal size, checks that each metric named in
BENCHMARK.json appears with its unit, and checks that deliberately
corrupted answers are counted as failed.  Takes about a minute, most of it
the keystone bank.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EX = run.load_package()
API = run.make_api(EX)

YES_SIGMA = [(("x1", "w1", "w2"), ("y1", "w1", "w2"), Fraction(0))]
YES_GOAL = (("z1", "z1"), ("x1", "y1"), Fraction(0))
NO_GOAL = (("x",), ("y",), Fraction(0))


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def assert_metrics(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_appears(workload):
    assert_metrics(bench(workload, 0), SPEC["end_to_end"])


def test_every_per_layer_metric_appears():
    assert_metrics(bench("certify-small", 1), SPEC["per_layer"])


def test_a_seed_fixes_the_operations_and_their_failures():
    first, second = bench("certify-small", 0), bench("certify-small", 0)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert run.cycles(6, 3000) == 18_000 and run.cycles(6, 0.05) == 1


def parsed(sigma, goal):
    return [EX.model.Atom(*a) for a in sigma], EX.model.Atom(*goal)


def test_derivation_with_a_step_removed_is_rejected():
    sigma, goal = parsed(YES_SIGMA, YES_GOAL)
    derivation = API.synthesize(sigma, goal, API.decide(sigma, goal).witness)
    answer = ("yes", derivation, API.check_derivation(derivation))
    assert run.check_certificate(YES_SIGMA, YES_GOAL, answer) is None
    for drop in range(len(derivation.steps)):
        steps = derivation.steps[:drop] + derivation.steps[drop + 1:]
        broken = replace(derivation, steps=steps)
        answer = ("yes", broken, API.check_derivation(broken))
        assert run.check_certificate(YES_SIGMA, YES_GOAL, answer) == "certificate_rejected"


def test_team_with_a_row_dropped_is_rejected():
    sigma, goal = parsed([], NO_GOAL)
    team = API.verified_counterexample(API.decide(sigma, goal).plan)
    assert run.check_certificate([], NO_GOAL, ("no", team)) is None
    for row in team.rows:
        broken = replace(team, rows=team.rows - {row})
        assert run.check_certificate([], NO_GOAL, ("no", broken)) == "certificate_rejected"


def test_wrong_eval_output_and_scan_are_failures():
    good = json.dumps({"satisfied": False, "min_removal": 2, "min_degree": "1/5"})
    bad = json.dumps({"satisfied": False, "min_removal": 3, "min_degree": "1/5"})
    assert run.check_eval(0, good, Fraction(0), 2, 10) is None
    assert run.check_eval(0, bad, Fraction(0), 2, 10) == "wrong_answer"
    assert run.check_eval(5, "", Fraction(0), 2, 10) == "capacity"
    assert run.check_eval(1, "", Fraction(0), 2, 10) == "other"
    assert "other" in run.WRONG_OUTPUT and "capacity" not in run.WRONG_OUTPUT
    assert run.check_scan(YES_SIGMA, YES_GOAL, True, False) is None
    assert run.check_scan(YES_SIGMA, YES_GOAL, True, True) == "scan_disagreement"
    assert run.check_scan(YES_SIGMA, YES_GOAL, False, True) == "wrong_answer"


def test_a_failure_counts_as_failed_not_answered():
    outcome = run.Run(None, run.speed.Speed())
    outcome.record(0.5, None, None)
    outcome.record(0.25, "certificate_rejected", {"goal": "g"})
    assert (outcome.attempted, outcome.failed, outcome.latencies) == (2, 1, [0.5])
    assert outcome.examples == {"certificate_rejected": [{"goal": "g"}]}


def test_times_scale_by_the_probes_around_them():
    nominal = run.speed.NOMINAL_S
    outcome = run.Run(None, run.speed.Speed())
    probes = outcome.speed.samples["measure"] = [0.5 * nominal]
    outcome.record(0.5, None, None)
    probes.append(1.5 * nominal)  # the first window ran at nominal speed
    outcome.record(0.5, None, None)
    outcome.record(0.25, "capacity", None)
    probes.append(2.5 * nominal)  # the second at half of it
    assert outcome.at_reference() == (0.5 + 0.25 + 0.125, [0.5, 0.25])
