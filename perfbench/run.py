"""The repository benchmark: certified queries, large decides, table
evaluation and a keystone slice, with an optional per-layer trace.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py                      # every workload, one table

It drives the package from ``src/`` through its public functions, in one
process and one thread, as a closed loop with a single caller.  Inputs
come from ``--seed`` alone, and so does the number of operations: a run
does the fixed amount of work that ``--seconds`` stands for (see
``cycles``), so two runs with the same seed attempt the same operations
and fail on the same ones.  Every answer is checked against one the
package did not produce (see ``reference.py`` and ``gen.py``).  The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The line before it reports run metadata, failures by
class with the first failing inputs, and the tail percentile used.
README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from math import ceil
from pathlib import Path
from types import SimpleNamespace

import gen
import reference
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("answered_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("cli_cold_start_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
)

# Coarse rungs keep the chosen percentile fixed across wide changes in
# speed: p99 needs 1000 answered operations, p95 200, p75 40.
TAIL_LADDER = (99, 95, 75, 50)

# Failure classes that make ``correct`` false: a wrong output, or an
# unexpected exception or exit code.  The other two, internal_verification
# and capacity, are the package's own refusals: they count as failed but
# leave ``correct`` true.
WRONG_OUTPUT = ("certificate_rejected", "wrong_answer", "scan_disagreement", "other")
EXAMPLES_KEPT = 3

COLD_START_SIGMA = (("x1", "w1", "w2"), ("y1", "w1", "w2"), Fraction(0))
COLD_START_GOAL = (("z1", "z1"), ("x1", "y1"), Fraction(0))


def load_package():
    """Import the package from this checkout's src/, nowhere else."""
    if not (SRC / "exclusion" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import exclusion
    import exclusion.cli
    import exclusion.sweep

    if SRC.resolve() not in Path(exclusion.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported exclusion from {exclusion.__file__}")
    return exclusion


def make_api(ex):
    """The benchmark's bindings of the package's public functions; a traced
    run wraps these."""
    cx = ex.counterexample
    return SimpleNamespace(
        parse_sigma=ex.parsing.parse_sigma,
        parse_atom=ex.parsing.parse_atom,
        decide=ex.decision.decide,
        synthesize=ex.calculus.synthesize,
        check_derivation=ex.calculus.check_derivation,
        verified_counterexample=cx.verified_counterexample,
        plan=cx.plan,
        domain_size_bound=cx.domain_size_bound,
        any_counterexample=ex.kernel.any_counterexample,
        build_bank=ex.sweep.TeamBank.build,
        cli_main=ex.cli.main,
    )


class Run:
    """Outcomes of one measured run."""

    def __init__(self, tracer, speed):
        self.tracer = tracer
        self.speed = speed
        self.attempted = 0
        self.busy = 0.0  # as measured
        self.work = 0
        self.latencies: list[float] = []  # answered operations, as measured
        self.windows: list[int] = []  # the probe window of each latency
        self.window_busy: Counter = Counter()
        self.failures: dict[str, int] = {}
        self.examples: dict[str, list] = {}

    def record(self, seconds, failure, example, work=1):
        self.attempted += 1
        self.busy += seconds
        window = self.speed.window("measure")
        self.window_busy[window] += seconds
        if failure is None:
            self.windows.append(window)
            self.latencies.append(seconds)
            self.work += work
            return
        self.failures[failure] = self.failures.get(failure, 0) + 1
        kept = self.examples.setdefault(failure, [])
        if len(kept) < EXAMPLES_KEPT:
            kept.append(example)

    def start_op(self):
        if self.tracer is not None:
            self.tracer.op = self.attempted

    @property
    def failed(self):
        return self.attempted - len(self.latencies)

    def at_reference(self):
        """(busy seconds, latencies), each operation scaled by the probes
        on either side of it."""
        factors = self.speed.window_factors("measure")
        busy = sum(b * factors[w] for w, b in self.window_busy.items())
        return busy, [s * factors[w] for s, w in zip(self.latencies, self.windows)]


def cycles(seconds, per_second):
    """The number of cycles a run of ``seconds`` does: ``per_second`` is
    how many cycles one second of package time held at the commit that
    added the benchmark, on the machine it was defined on.  The count
    depends on the arguments alone, never on the clock, so the operations a
    run attempts, and the ones that fail, follow from the seed."""
    return max(1, round(seconds * per_second))


def measure(run, count, cycle):
    """Run ``count`` cycles of operations; ``cycle()`` yields zero-argument
    operations.  The speed probe runs between operations, never inside
    one."""
    run.speed.probe("measure")
    for _ in range(count):
        for op in cycle():
            run.speed.tick("measure")
            op()
    run.speed.probe("measure")


def classify(exc, ex) -> str:
    if isinstance(exc, ex.errors.InternalVerificationError):
        return "internal_verification"
    if isinstance(exc, ex.errors.CapacityError):
        return "capacity"
    return "other"


def as_tuple(atom):
    return atom.left, atom.right, atom.degree


# ==========================================================================
# certified queries: certify-small and decide-large
# ==========================================================================

def certify(ctx, sigma, goal, sigma_text=None):
    """Answer one query from atom text with a certificate, then check it."""
    api, run = ctx.api, ctx.run
    if sigma_text is None:
        sigma_text = "\n".join(gen.atom_text(*a) for a in sigma)
    goal_text = gen.atom_text(*goal)
    run.start_op()
    answer = None
    start = time.perf_counter()
    try:
        parsed = api.parse_sigma(sigma_text)
        target = api.parse_atom(goal_text)
        verdict = api.decide(parsed, target)
        if verdict.holds:
            derivation = api.synthesize(parsed, target, verdict.witness)
            answer = ("yes", derivation, api.check_derivation(derivation))
        else:
            answer = ("no", api.verified_counterexample(verdict.plan))
        failure = None
    except ctx.ex.errors.ExclusionError as exc:
        failure = classify(exc, ctx.ex)
    except Exception:  # a crash is a failed operation, not a failed run
        failure = "other"
        ctx.crashes.append(traceback.format_exc(limit=3))
    elapsed = time.perf_counter() - start
    if failure is None:
        failure = check_certificate(sigma, goal, answer)
    example = failure and {
        "sigma": sigma_text if len(sigma) <= 8 else f"<{len(sigma)} atoms>",
        "goal": goal_text,
        "reference_holds": reference.holds(sigma, goal),
    }
    run.record(elapsed, failure, example)


def check_certificate(sigma, goal, answer):
    """None when the certified answer is right, else a failure class."""
    if answer[0] == "yes":
        _, derivation, result = answer
        if not result.ok or as_tuple(derivation.goal) != goal:
            return "certificate_rejected"
        premises = set(sigma)
        for step in derivation.steps:
            if step.rule == "HYP" and as_tuple(step.conclusion) not in premises:
                return "certificate_rejected"
        return None if reference.holds(sigma, goal) else "wrong_answer"
    team = answer[1]
    if not reference.separates(team.schema, team.rows, sigma, goal):
        return "certificate_rejected"
    return None


def certify_small(ctx):
    """Tiny instances: 5 variables, arity <= 4, <= 3 premises."""
    rng, names = ctx.rng, tuple("abcde")

    def cycle():
        for derived in (True, False):
            sigma, goal = gen.instance(rng, names, rng.randint(0, 3), (1, 2, 3, 4), derived)
            yield lambda: certify(ctx, sigma, goal)

    measure(ctx.run, cycles(ctx.seconds, 3000), cycle)


def decide_large(ctx):
    """1000 premises over 60 variables at arity 5, 10, 20 and 40.

    A cycle draws a fresh premise set per arity, so that a run averages
    over several sets, and asks 1, 2, 3 and 4 goal pairs (one derived, one
    random) at the four arities.  With equal counts the median and the p75
    tail fell on the gaps between arities and swung by 10-20% from run to
    run; these counts put both inside a dense band of latencies.
    """
    rng = ctx.rng
    names = tuple(f"v{i}" for i in range(60))
    count = 100 if ctx.smoke else 1000

    def cycle():
        for weight, arity in enumerate((5, 10, 20, 40), start=1):
            sigma = [gen.random_atom(rng, names, arity) for _ in range(count)]
            text = "\n".join(gen.atom_text(*a) for a in sigma)
            for _ in range(weight):
                derived = gen.derived_goal(rng, rng.choice(sigma), names, arity)
                yield lambda: certify(ctx, sigma, derived, text)
                other = gen.random_atom(rng, names, arity)
                yield lambda: certify(ctx, sigma, other, text)

    measure(ctx.run, cycles(ctx.seconds, 0.8), cycle)


# ==========================================================================
# eval-tables
# ==========================================================================

# rows -> tables per shape per cycle; 12 small tables per shape put the
# median and the p75 tail inside the dense band of 1k-row searches and
# 10k-row scans rather than at its edge
EVAL_ROWS = {1000: 12, 10_000: 2, 100_000: 1}
EVAL_CONFLICTS = (4, 15, 24)  # a few, a 2^15 search, beyond the 20-choice cap


def evaluate(ctx, path, table):
    run = ctx.run
    csv_text, atom, planted, size = table
    atom_text = gen.atom_text(*atom)
    path.write_text(csv_text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    run.start_op()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ctx.api.cli_main(["eval", str(path), atom_text, "--json"])
        except Exception:  # a crash is a failed operation, not a failed run
            code = None
            ctx.crashes.append(traceback.format_exc(limit=3))
    elapsed = time.perf_counter() - start
    failure = check_eval(code, out.getvalue(), atom[2], planted, size)
    example = failure and {"rows": size, "atom": atom_text, "planted": planted,
                           "exit": code, "stderr": err.getvalue().strip()[:200]}
    run.record(elapsed, failure, example, work=size)


def check_eval(code, stdout, degree, planted, size):
    """None when the eval output matches the planted answer."""
    if code == 5:
        return "capacity"
    if code != 0:
        return "other"
    payload = json.loads(stdout)
    expected = {
        "min_removal": planted,
        "satisfied": reference.within_budget(planted, degree, size),
        "min_degree": str(Fraction(planted, size)),
    }
    if any(payload.get(k) != v for k, v in expected.items()):
        return "wrong_answer"
    return None


def eval_tables(ctx):
    """CSV tables over rows x conflicting values x arity, scored by the CLI."""
    rng, path = ctx.rng, ctx.work / "table.csv"
    scale = 100 if ctx.smoke else 1
    shapes = [
        (rows // scale, conflicts, arity)
        for rows, copies in EVAL_ROWS.items()
        for conflicts in EVAL_CONFLICTS
        for arity in (1, 2)
        for _ in range(copies)
    ]
    # one interleaved order for every seed: the peak resident set follows
    # the heap's history, and an order drawn from the seed moved it by 5%
    random.Random(0).shuffle(shapes)

    def cycle():
        for rows, conflicts, arity in shapes:
            table = gen.table(rng, rows, conflicts, arity)
            yield lambda: evaluate(ctx, path, table)

    # one whole grid takes about 20 s of package time: every run shorter
    # than 30 s does one
    measure(ctx.run, cycles(ctx.seconds, 0.05), cycle)


# ==========================================================================
# keystone-slice
# ==========================================================================

def keystone_setup(ctx):
    """The sweep's bank and the 270 keystone satisfaction masks."""
    col = {v: i for i, v in enumerate("abc")}
    # free the previous bank and masks before building the next
    ctx.bank = ctx.masks = ctx.ones = None
    bank = ctx.api.build_bank(3, 4, 12)
    ctx.masks = [
        bank.satisfaction_mask([col[v] for v in x], [col[v] for v in y], d)
        for x, y, d in ctx.keystone
    ]
    ctx.ones = bank.all_mask()
    ctx.bank = bank


def check_scan(sigma, goal, holds, found):
    """None when the scan refutes exactly the NO verdicts and the verdict
    matches the reference."""
    if holds == found:
        return "scan_disagreement"
    if holds != reference.holds(sigma, goal):
        return "wrong_answer"
    return None


def keystone_slice(ctx):
    """Seeded keystone instances, each decided, planned and scanned.

    The run alternates set-up and measurement: build the bank and masks,
    measure half the run, build them again, measure the other half, so
    that set-up time is the median of two builds and the measurement meets
    the machine at two moments twenty seconds apart.
    """
    rng, api, run = ctx.rng, ctx.api, ctx.run
    objects = ctx.ex.sweep.keystone_atoms()
    atoms = ctx.keystone = [as_tuple(a) for a in objects]

    def scan(picked, g):
        sigma = tuple(atoms[i] for i in picked)
        premises = tuple(objects[i] for i in picked)
        masks, ones, bank = ctx.masks, ctx.ones, ctx.bank
        run.start_op()
        start = time.perf_counter()
        verdict = api.decide(premises, objects[g])
        plan = verdict.plan or api.plan(premises, objects[g])
        found = api.any_counterexample(
            masks[picked[0]] if picked else ones,
            masks[picked[1]] if len(picked) > 1 else ones,
            masks[g],
            bank.row_mask(plan.k),
            bank.value_mask(api.domain_size_bound(plan)),
        )
        elapsed = time.perf_counter() - start
        failure = check_scan(sigma, atoms[g], verdict.holds, found)
        example = failure and {"sigma": [gen.atom_text(*a) for a in sigma],
                               "goal": gen.atom_text(*atoms[g]),
                               "holds": verdict.holds, "found": found}
        run.record(elapsed, failure, example)

    def cycle():
        for _ in range(100):
            picked = tuple(rng.sample(range(len(atoms)), rng.choice((0, 1, 2, 2))))
            g = rng.randrange(len(atoms))
            yield lambda: scan(picked, g)

    rounds = 1 if ctx.smoke else 2
    for _ in range(rounds):
        start = time.perf_counter()
        keystone_setup(ctx)
        ctx.setup_samples.append(time.perf_counter() - start)
        measure(run, cycles(ctx.seconds / rounds, 95), cycle)


RUNNERS = {
    "certify-small": certify_small,
    "decide-large": decide_large,
    "eval-tables": eval_tables,
    "keystone-slice": keystone_slice,
}


# ==========================================================================
# set-up, cold start, metrics
# ==========================================================================

def pin_to_one_cpu():
    """Keep this process and its children on the lowest allowed CPU.

    Migrating between CPUs whose speed differs (a busy sibling thread on
    the host, for one) swings a run's figures by more than the work does.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import exclusion, exclusion.cli, exclusion.sweep; "
    "print(time.perf_counter() - t)"
)


class Startup:
    """Fresh-interpreter samples: the package import time, and the wall
    time of ``python -m exclusion.cli check --json`` on one fixed instance
    with its answer checked.  A speed probe precedes each one."""

    def __init__(self, work, speed):
        self.speed = speed
        sigma_path = work / "cold_sigma.txt"
        sigma_path.write_text(gen.atom_text(*COLD_START_SIGMA) + "\n", encoding="utf-8")
        self.args = [sys.executable, "-m", "exclusion.cli", "check", "--json",
                     str(sigma_path), gen.atom_text(*COLD_START_GOAL)]
        self.expected = reference.holds([COLD_START_SIGMA], COLD_START_GOAL)
        # (seconds, seconds at reference speed) per fresh interpreter
        self.imports: list[tuple[float, float]] = []
        self.cold: list[tuple[float, float]] = []
        self.right = True

    def sample(self, imports, colds):
        for _ in range(imports):
            self.speed.probe("startup")
            out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=child_env(),
                                 cwd=ROOT, capture_output=True, text=True, check=True,
                                 timeout=60)
            elapsed = float(out.stdout)
            self.imports.append((elapsed, self.speed.scaled("startup", elapsed)))
        for _ in range(colds):
            self.speed.probe("startup")
            start = time.perf_counter()
            out = subprocess.run(self.args, env=child_env(), cwd=ROOT,
                                 capture_output=True, text=True, timeout=60)
            elapsed = time.perf_counter() - start
            self.cold.append((elapsed, self.speed.scaled("startup", elapsed)))
            self.right = (self.right and out.returncode == 0
                          and json.loads(out.stdout)["holds"] == self.expected)


def tail(latencies):
    """(percentile, seconds): the highest ladder percentile with at least
    ten answered operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n * (100 - q) >= 1000:
            return q, ordered[ceil(n * q / 100) - 1]
    return 100, ordered[-1] if ordered else 0.0


def metadata(ex, seed):
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    import numpy

    return {
        "kernel_lane": ex.kernel.IMPLEMENTATION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def run_workload(args, ex) -> int:
    workload = RUNNERS[args.workload]
    tracer = spans.Tracer(ex.errors.CapacityError) if args.trace else None
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    ctx = SimpleNamespace(
        ex=ex, api=make_api(ex), rng=random.Random(args.seed), seconds=args.seconds,
        smoke=args.smoke, run=Run(tracer, speed.Speed()), work=work, crashes=[],
        setup_samples=[],
    )
    ctx.speed = ctx.run.speed
    # half the start-up samples before the run and half after, so they
    # meet the machine in more than one state; one cold start varies by
    # +-15% on its own, so it takes many
    samples = (1, 1) if args.smoke else (2, 6)  # imports, cold starts
    try:
        startup = Startup(work, ctx.speed)
        startup.sample(*samples)
        if tracer is not None:
            tracer.install(spans.layer_bindings(ctx.api, ex))
        workload(ctx)
        startup.sample(*samples)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # left in place while another run uses it
    setup_samples = ctx.setup_samples
    run = ctx.run
    q = tail(run.latencies)[0]
    answered = len(run.latencies)

    build_s = statistics.median(setup_samples) if setup_samples else 0.0

    def timings(busy, latencies, at_reference):
        """The time metrics from these operation times, and from the
        start-up and set-up samples at reference speed (``at_reference``
        1) or as measured (0).  A bank build takes twenty seconds, too long
        for the probes on either side of it to track; it is scaled by the
        mean probe of the run's measurement instead."""
        def median(samples):
            return statistics.median(s[at_reference] for s in samples)

        build_x = ctx.speed.factor("measure") if at_reference else 1.0
        return {
            "ops_per_s": run.work / busy,
            "latency_p50_ms": (statistics.median(latencies) if answered else 0.0) * 1000,
            "latency_tail_ms": tail(latencies)[1] * 1000,
            "cli_cold_start_ms": median(startup.cold) * 1000,
            "setup_s": median(startup.imports) + build_s * build_x,
        }

    e2e = {
        **timings(*run.at_reference(), 1),
        "answered_share": answered / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    else:
        metrics = tracer.metrics(run.attempted, ctx.speed.factor("measure"))
    wrong = sum(run.failures.get(c, 0) for c in WRONG_OUTPUT)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        **metadata(ex, args.seed),
        "busy_s": run.busy,
        "speed": ctx.speed.report(),
        "unscaled": timings(run.busy, run.latencies, 0),
        "failed_share": run.failed / run.attempted,
        "tail_percentile": q,
        "setup_samples_s": setup_samples,
        "cli_cold_start_right": startup.right,
        "failures": run.failures,
        "failure_examples": run.examples,
        "crashes": ctx.crashes[:EXAMPLES_KEPT],
    }
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": wrong == 0 and startup.right,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in RUNNERS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(f"{name}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(lines[-2])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*RUNNERS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="package seconds of work to do, at the speed of the "
                             "commit that added the benchmark; sets the number of "
                             "operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes for the smoke test; not comparable")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, load_package())


if __name__ == "__main__":
    sys.exit(main())
