"""The parent-against-change harness of ``benchmarks/``, on a toy case,
and the per-layer scripts that use it."""

from __future__ import annotations

import importlib
import json
import re
import subprocess
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
    if script == "bench_cold":  # times fresh interpreters, not in-process cases
        assert module._arguments is harness._arguments
        return
    assert module.compare_in_process is harness.compare_in_process
    assert callable(module.cases)


def test_cold_start_script_compares_a_tree_with_itself(tmp_path):
    out = tmp_path / "BENCH_cold.json"
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_cold.py"),
         "--parent", str(ROOT / "src"), "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["repeats"] == 1
    assert result["same_certificate"] is True
    assert set(result["cases"]) == {"import", "check_json", "check_certificate", "eval_json"}
    for case in result["cases"].values():
        assert case["same_results"] is True
        assert case["modules"]["parent"] == case["modules"]["change"]
        assert set(case["parent"]) == {"median", "q1", "q3"}
    assert result["cases"]["import"]["modules"]["change"] == ["exclusion"]


def test_a_record_is_dirty_only_when_its_source_is(harness, tmp_path):
    def git(*argv):
        subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=bench", "-c", "user.email=bench@example.org",
             "-c", "commit.gpgsign=false", *argv],
            check=True, capture_output=True, text=True,
        )

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "README.md").write_text("notes\n", encoding="utf-8")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    clean = harness._commit(tmp_path / "src")
    assert re.fullmatch(r"[0-9a-f]{7,}", clean)
    # a docs edit and an untracked file leave the code as committed
    (tmp_path / "README.md").write_text("more notes\n", encoding="utf-8")
    (tmp_path / "src" / "scratch.txt").write_text("", encoding="utf-8")
    assert harness._commit(tmp_path / "src") == clean
    (tmp_path / "src" / "module.py").write_text("x = 2\n", encoding="utf-8")
    assert harness._commit(tmp_path / "src") == clean + "-dirty"


def test_a_pass_longer_than_half_a_second_is_still_repeated(harness, monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    passes = []

    def slow_call():  # 0.6 s on the fake clock, counted
        passes.append(clock[0])
        clock[0] += 0.6

    assert harness._time_per_call([slow_call]) == pytest.approx(0.6)
    assert len(passes) == 5


def test_every_traced_binding_resolves(monkeypatch):
    # a traced perfbench run wraps each (owner, attr) it lists by getattr,
    # so a name the package no longer binds would crash every traced run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    before = set(sys.modules)
    try:
        run = importlib.import_module("run")
        spans = importlib.import_module("spans")
        ex = run.load_package()
        bindings = spans.layer_bindings(run.make_api(ex), ex)
        assert set(bindings) == set(spans.LAYERS)
        for layer, places in bindings.items():
            for owner, attr in places:
                assert callable(getattr(owner, attr, None)), (layer, attr)
    finally:
        for name in set(sys.modules) - before:
            if name in ("run", "spans", "gen", "reference", "speed"):
                del sys.modules[name]


@pytest.mark.parametrize(
    "sigma, goal",
    [
        ((), "excl[1](x ; y)"),
        (("excl(x ; x)",), "excl(u ; v)"),
        (("excl(x y ; u v)",), "excl(y x ; v u)"),
    ],
)
def test_synthesize_self_checks_through_the_calculus_binding(monkeypatch, sigma, goal):
    # a traced run counts the self-checks by wrapping this one binding
    from exclusion import calculus, decide, parse_atom

    checked = []
    real = calculus.check_derivation
    monkeypatch.setattr(calculus, "check_derivation", lambda d: checked.append(d) or real(d))
    sigma, goal = tuple(map(parse_atom, sigma)), parse_atom(goal)
    verdict = decide(sigma, goal)
    assert verdict.holds
    assert checked == [calculus.synthesize(sigma, goal, verdict.witness)]


def test_every_package_name_a_script_reads_resolves():
    # the scripts also run against older trees, as ``--parent`` or as the
    # benchmark's parent checkout, and read the package as ``ex``: a name
    # they read as ``ex.<module>.<name>`` must stay bound in that module
    names = set()
    for path in [*(ROOT / "benchmarks").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        names.update(re.findall(r"\bex\.(\w+)\.(\w+)", path.read_text(encoding="utf-8")))
    assert {("calculus", "check_derivation"), ("counterexample", "verify")} <= names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(f"exclusion.{module}"), name), (module, name)
