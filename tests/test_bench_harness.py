"""The parent-against-change harness of ``benchmarks/``, on a toy case,
and the per-layer scripts that use it."""

from __future__ import annotations

import importlib
import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    before = set(sys.modules)
    yield importlib.import_module("harness")
    for name in set(sys.modules) - before:
        if name.startswith(("exclusion_", "bench_", "harness")):
            del sys.modules[name]


def toy_cases(ex):
    """One timed case, and two answers of which the second is refused."""
    atom = ex.parsing.parse_atom("excl(x ; y)")
    team = ex.model.Team(("x", "y"), frozenset({("1", "1")}))
    answers = {"toy": [ex.semantics.min_removal(team, atom), "CapacityError"]}
    timed = {"parse_atom": [lambda: ex.parsing.parse_atom("excl(x ; y)")]}
    return repr(atom), timed, {"answers": answers}


def test_compare_in_process_records_both_trees(harness, tmp_path, capsys):
    out = tmp_path / "BENCH_toy.json"
    code = harness.compare_in_process(
        "toy", toy_cases, "toy",
        ["--parent", str(ROOT / "src"), "--repeats", "1", "--out", str(out)],
    )
    assert code == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["same_results"] is True
    assert result["repeats"] == 1
    assert set(result["median"]) == set(result["runs"]) == {"parse_atom"}
    assert "paired_speedup" in result["median"]["parse_atom"]
    assert result["answers"] == {
        "parent": {"toy": [1, "CapacityError"]},
        "change": {"toy": [1, "CapacityError"]},
    }
    assert result["answered_share"] == {"parent": {"toy": 0.5}, "change": {"toy": 0.5}}
    assert result["same_where_both_answer"] is True


def test_repeats_below_one_is_a_usage_error(harness, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        harness.compare_in_process(
            "toy", toy_cases, "toy",
            ["--parent", str(ROOT / "src"), "--repeats", "0", "--out", str(tmp_path / "x.json")],
        )
    assert info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "script", sorted(path.stem for path in (ROOT / "benchmarks").glob("bench_*.py"))
)
def test_every_script_imports(harness, script):
    # builds no inputs and times nothing: only the imports and definitions run
    module = importlib.import_module(script)
    assert module.compare_in_process is harness.compare_in_process
    assert callable(module.cases)


def test_a_pass_longer_than_half_a_second_is_still_repeated(harness, monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    passes = []

    def slow_call():  # 0.6 s on the fake clock, counted
        passes.append(clock[0])
        clock[0] += 0.6

    assert harness._time_per_call([slow_call]) == pytest.approx(0.6)
    assert len(passes) == 5
