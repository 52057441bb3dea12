"""Cold start of the package and the command line, parent against change.

    python benchmarks/bench_cold.py --parent OTHER/src [--repeats 7]

Every case is one fresh interpreter: ``import exclusion``, and ``python -m
exclusion.cli`` running ``check --json``, ``check --certificate`` on a YES
and ``eval --json`` on README's examples.  The command lines, not single
functions, are what is timed, so this script runs subprocesses rather than
``harness.compare_in_process``; it shares the harness's options and its
commit and machine records.

Before timing, every case runs once untimed on each tree, so both trees
hold bytecode: a tree without a ``__pycache__`` reads several milliseconds
slower.  Then, within each repeat, every case runs on one tree and at once
on the other, alternating which goes first, and the wall time from start
to exit counts.  This process and its children keep to one CPU.

The JSON, ``benchmarks/BENCH_cold.json`` by default, records per case and
tree the median and quartiles in milliseconds, how many of the repeats'
pairs the change won, whether both trees printed and wrote the same bytes,
and, as the median of one ``-X importtime`` run per repeat, the self time
summed over the ``exclusion.*`` modules, with the modules loaded.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import _arguments, _commit, _machine

GOAL = "excl(z1 z1 ; x1 y1)"
CLI = ("-m", "exclusion.cli")
CASES = {
    "import": ("-c", "import exclusion"),
    "check_json": (*CLI, "check", "--json", "sigma.txt", GOAL),
    "check_certificate": (*CLI, "check", "--json", "--certificate", "proof.json",
                          "sigma.txt", GOAL),
    "eval_json": (*CLI, "eval", "--json", "team.csv", "excl[1/2](x ; y)"),
}


def _run(src: Path, work: Path, argv, *flags):
    """Seconds from start to exit of one fresh interpreter, and its output."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # both trees keep their bytecode
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *flags, *argv], env=env, cwd=work,
                         capture_output=True, text=True, check=True, timeout=60)
    return time.perf_counter() - start, out


def _importtime(stderr: str) -> tuple[float, list[str]]:
    """Self milliseconds summed over the ``exclusion.*`` modules of an
    ``-X importtime`` report, and those modules."""
    total, modules = 0, []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name.split(".")[0] == "exclusion":
            total += int(self_us)
            modules.append(name)
    return total / 1000, sorted(modules)


def _summary(times: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median": round(statistics.median(times), 2), "q1": round(q1, 2),
            "q3": round(q3, 2)}


def main(argv=None) -> int:
    args = _arguments("Cold start, parent against change.", "cold", argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {case: {name: [] for name in trees} for case in CASES}
    imports = {case: {name: [] for name in trees} for case in CASES}
    outputs = {}
    with tempfile.TemporaryDirectory() as scratch:
        works = {name: Path(scratch) / name for name in trees}
        for work in works.values():
            work.mkdir()
            (work / "sigma.txt").write_text("excl(x1 w1 w2 ; y1 w1 w2)\n", encoding="utf-8")
            (work / "team.csv").write_text("x,y\n0,0\n1,2\n", encoding="utf-8")
        for case, case_argv in CASES.items():
            for name, src in trees.items():
                _run(src, works[name], case_argv)  # untimed: writes bytecode
        for repeat in range(args.repeats):
            for i, (case, case_argv) in enumerate(CASES.items()):
                order = list(trees) if (repeat + i) % 2 == 0 else list(reversed(trees))
                for name in order:
                    seconds, out = _run(trees[name], works[name], case_argv)
                    times[case][name].append(seconds * 1000)
                    outputs[case, name] = out.stdout
            for case, case_argv in CASES.items():
                for name, src in trees.items():
                    _, out = _run(src, works[name], case_argv, "-X", "importtime")
                    imports[case][name].append(_importtime(out.stderr))
            print(f"repeat {repeat + 1}/{args.repeats} done", file=sys.stderr)
        certificates = {(works[name] / "proof.json").read_bytes() for name in trees}

    result = {
        "benchmark": "bench_cold",
        "machine": _machine(),
        "python": platform.python_version(),
        "repeats": args.repeats,
        "commits": {name: _commit(path) for name, path in trees.items()},
        "unit": "ms, wall time of one fresh interpreter",
        "same_certificate": len(certificates) == 1,
        "cases": {},
        "runs": {},
    }
    for case, case_argv in CASES.items():
        per_tree = times[case]
        result["cases"][case] = {
            "argv": list(case_argv),
            **{name: _summary(per_tree[name]) for name in trees},
            "change_wins": sum(c < p for p, c in zip(per_tree["parent"], per_tree["change"])),
            "same_results": outputs[case, "parent"] == outputs[case, "change"],
            "exclusion_self_ms": {
                name: round(statistics.median(ms for ms, _ in imports[case][name]), 2)
                for name in trees
            },
            "modules": {name: imports[case][name][0][1] for name in trees},
        }
        result["runs"][case] = {name: [round(v, 2) for v in vs] for name, vs in per_tree.items()}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({case: {name: r[name]["median"] for name in trees}
                      for case, r in result["cases"].items()}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
