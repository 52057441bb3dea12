"""The parent-against-change harness of ``benchmarks/``, on a toy case."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import bench_certify

    before = set(sys.modules)
    yield bench_certify
    for name in set(sys.modules) - before:
        if name.startswith("exclusion_"):
            del sys.modules[name]


def toy_cases(ex):
    """One timed case, and two answers of which the second is refused."""
    atom = ex.parsing.parse_atom("excl(x ; y)")
    team = ex.model.Team(("x", "y"), frozenset({("1", "1")}))
    answers = {"toy": [ex.semantics.min_removal(team, atom), "CapacityError"]}
    timed = {"parse_atom": ([lambda: ex.parsing.parse_atom("excl(x ; y)")], 0.0)}
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
