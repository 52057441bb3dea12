"""The parent-against-change harness of the per-layer scripts.

``bench_decide.py``, ``bench_eval.py`` and ``bench_sweep.py`` each give
``compare_in_process`` a function that builds one tree's seeded inputs and
returns a digest of its answers, its timed cases (case -> calls) and its
facts; the harness does the rest:

    python benchmarks/bench_<topic>.py --parent OTHER/src [--repeats 7]

``--parent`` names the ``src/`` directory of a second checkout, usually
of the parent commit (``git clone`` this repository and check the parent
out, so that its commit is recorded); ``--change`` defaults to this
checkout's ``src/``.  Both trees are imported into one interpreter, each
under a package name of its own, and each builds the same seeded inputs.
The machine's speed may drift by tens of percent over minutes, so the two
trees are timed case by case: within a repeat, each case is timed on one
tree and then at once on the other, alternating which goes first, so the
two timings of a case lie seconds apart.

One rule times every case (``_time_per_call``): passes over the case's
calls repeat until there have been at least ``MIN_PASSES`` of them and
``MIN_SECONDS`` have gone by, and the fastest pass counts.  The JSON
records, per case, each repeat's speedup (parent time over change time)
and their median as ``paired_speedup``, the figure to read for changes
of a few percent, and each tree's digest of what it returned, with
``same_results`` true when they are equal.  The output,
``benchmarks/BENCH_<topic>.json`` by default, holds per-case medians,
every repeat, the machine, Python, numpy, the kernel lane and the repeat
count.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 5
MIN_SECONDS = 0.5


def _time_per_call(calls):
    """Seconds per call in the fastest whole pass over ``calls``.

    Passes repeat until there have been ``MIN_PASSES`` of them and
    ``MIN_SECONDS`` have gone by, so a case whose pass takes a large part
    of a second still gets several.  The fastest pass, not the mean, is
    the one least disturbed by other work on the machine; a machine whose
    speed drifts over minutes still moves it between repeats, so compare
    trees over several repeats.
    """
    best, passes = float("inf"), 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < MIN_SECONDS:
        began = time.perf_counter()
        for call in calls:
            call()
        best = min(best, time.perf_counter() - began)
        passes += 1
    return best / len(calls)


def _load_tree(src: Path, name: str):
    """The ``exclusion`` package under ``src`` imported as ``name``.

    The package imports its own modules relatively, so two trees can live
    in one interpreter under two names.
    """
    spec = importlib.util.spec_from_file_location(
        name, src / "exclusion" / "__init__.py",
        submodule_search_locations=[str(src / "exclusion")],
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "counterexample", "decision", "kernel", "model", "parsing", "sweep"):
        importlib.import_module(f"{name}.{module}")
    return package


# ==========================================================================
# main: both trees in one interpreter, timed case by case
# ==========================================================================

def _commit(src: Path) -> str:
    """The tree's commit, marked ``-dirty`` only when a tracked file under
    ``src`` differs from it: an edit to the docs leaves the code as
    committed."""
    def git(*argv: str) -> str:
        out = subprocess.run(
            ["git", "-C", str(src), *argv], check=True, capture_output=True, text=True,
        )
        return out.stdout.strip()

    try:
        commit = git("describe", "--always")
        if git("status", "--porcelain", "--untracked-files=no", "--", "."):
            commit += "-dirty"
        return commit
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _machine() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return f"{line.split(':', 1)[1].strip()}, {os.cpu_count()} CPUs"
    except OSError:
        pass
    return f"{platform.machine()}, {os.cpu_count()} CPUs"


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _arguments(description: str, topic: str, argv):
    """The options every parent-against-change script takes."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--parent", type=Path, required=True,
                        help="src/ of the tree to compare against")
    parser.add_argument("--change", type=Path, default=ROOT / "src", help="src/ of this tree")
    parser.add_argument("--repeats", type=_positive, default=7)
    parser.add_argument("--out", type=Path, default=HERE / f"BENCH_{topic}.json")
    return parser.parse_args(argv)


def _result(topic: str, trees: dict, lanes: dict, repeats: int, unit: str, **fields) -> dict:
    """The record's header: machine, versions, trees; ``fields`` go before the times."""
    import numpy

    return {
        "benchmark": f"bench_{topic}",
        "machine": _machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_lane": lanes,
        "repeats": repeats,
        "commits": {name: _commit(path) for name, path in trees.items()},
        **fields,
        "unit": unit,
        "median": {},
        "runs": {},
    }


def _add_case(result: dict, case: str, per_tree: dict) -> None:
    """Record one case's per-tree times (one per repeat) and their medians.

    Each repeat's speedup is the parent's time over the change's, taken
    within the repeat, whose two timings ran close together, so slow
    drift of the machine cancels.
    """
    parent, change = (statistics.median(per_tree[n]) for n in ("parent", "change"))
    paired = [p / c for p, c in zip(per_tree["parent"], per_tree["change"])]
    result["median"][case] = {
        "parent": round(parent, 2),
        "change": round(change, 2),
        "speedup": round(parent / change, 2),
        "paired_speedup": round(statistics.median(paired), 3),
    }
    result["runs"][case] = {n: [round(v, 2) for v in vs] for n, vs in per_tree.items()}
    result["runs"][case]["paired_speedup"] = [round(v, 3) for v in paired]


def _answered(answers: dict) -> dict:
    """Per tree and case, the share of answers that are not the refusal
    ``"CapacityError"``, and whether the trees agree wherever both answer."""
    return {
        "answered_share": {
            name: {
                case: round(sum(a != "CapacityError" for a in got) / len(got), 3)
                for case, got in per_case.items()
            }
            for name, per_case in answers.items()
        },
        "same_where_both_answer": all(
            p == c
            for case in answers["change"]
            for p, c in zip(answers["parent"][case], answers["change"][case])
            if "CapacityError" not in (p, c)
        ),
    }


def compare_in_process(
    topic: str,
    cases_of,
    description: str,
    argv=None,
    unit: tuple[str, float] = ("microseconds per call", 1e6),
) -> int:
    """Command line of the parent-against-change scripts.

    ``cases_of(ex)`` builds the inputs of one tree, whose package is
    ``ex``, and returns the digest of its answers, its timed cases (case
    -> calls, each timed by ``_time_per_call``) and its facts (key ->
    value, what else the record keeps per tree).  Each tree is imported
    under a name of its own (``_load_tree``) and builds its own inputs;
    then, within each repeat, every case is timed on one tree and at once
    on the other, alternating which goes first.  Every fact is recorded
    per tree under its own key; ``answers`` (case -> list of results)
    also gives each case's answered share and ``same_where_both_answer``
    (``_answered``).  ``unit`` names the unit of the recorded times and
    its number per second.  The result goes to ``BENCH_<topic>.json`` by
    default.
    """
    args = _arguments(description, topic, argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    packages = {name: _load_tree(src, f"exclusion_{name}") for name, src in trees.items()}
    built = {name: cases_of(ex) for name, ex in packages.items()}
    times = {case: {name: [] for name in trees} for case in built["change"][1]}
    for repeat in range(args.repeats):
        for i, case in enumerate(times):
            order = list(trees) if (repeat + i) % 2 == 0 else list(reversed(trees))
            for name in order:
                times[case][name].append(_time_per_call(built[name][1][case]) * unit[1])
        print(f"repeat {repeat + 1}/{args.repeats} done", file=sys.stderr)

    digests = {name: built[name][0] for name in trees}
    facts = {key: {name: built[name][2][key] for name in trees} for key in built["change"][2]}
    if "answers" in facts:
        facts.update(_answered(facts["answers"]))
    result = _result(
        topic, trees, {name: ex.kernel.IMPLEMENTATION for name, ex in packages.items()},
        args.repeats, unit[0],
        digests=digests, same_results=digests["parent"] == digests["change"],
    )
    for case, per_tree in times.items():
        _add_case(result, case, per_tree)
    result.update(facts)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result["median"], indent=2))
    return 0

