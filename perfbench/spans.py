"""Spans around the package's layers, recorded from the benchmark's side.

A traced run replaces each binding listed in ``layer_bindings`` with a
wrapper that records ``(op, name, start, end, parent)`` in memory: the
benchmark's own calls go through the ``api`` namespace, and a layer reached
inside another is wrapped as bound in the calling module (for example
``min_removal`` as ``exclusion.cli`` sees it).  Spans are aggregated when
the run ends into busy seconds (span durations), self seconds (minus the
time covered by child spans) and call counts per layer, plus a few counts
taken from results.  The package is single-threaded and has no queue or
worker pool, so there is no waiting time to record.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

LAYERS = (
    "parsing.parse_sigma",
    "parsing.parse_atom",
    "parsing.read_team_csv",
    "decision.decide",
    "calculus.synthesize",
    "calculus.check_derivation",
    "counterexample.plan",
    "counterexample.build_team",
    "counterexample.verify",
    "semantics.min_removal",
    "semantics.satisfies",
    "kernel.enumerate_packed",
    "kernel.conflict_words",
    "sweep.satisfaction_mask",
    "kernel.any_counterexample",
    "cli.main",
)

WITNESS_KINDS = {
    "VacuousDegreeWitness": "vacuous-degree",
    "MembershipWitness": "membership",
    "ContradictionWitness": "contradiction",
    "SubsetWitness": "subset",
    "CoverWitness": "a6-cover",
}

# name, unit, better; the per-layer metrics every traced run prints
EXTRAS = (
    ("decision.yes_share", "ratio", "higher"),
    *((f"decision.witness.{k}", "count", "higher") for k in WITNESS_KINDS.values()),
    ("calculus.synthesize.steps", "count", "lower"),
    ("calculus.check_derivation.rejects", "count", "lower"),
    ("counterexample.plan.nontransitive", "count", "lower"),
    ("counterexample.verify.accept_ratio", "ratio", "higher"),
    ("semantics.min_removal.calls_per_op", "calls/op", "lower"),
    ("semantics.min_removal.capacity_refusals", "count", "lower"),
    ("kernel.enumerate_packed.teams", "count", "lower"),
    ("kernel.any_counterexample.hit_ratio", "ratio", "higher"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.busy_s", "s", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "higher"))
    return out + list(EXTRAS)


def layer_bindings(api, exclusion):
    """Layer name -> the (namespace, attribute) bindings that reach it."""
    cli, calculus, cx = exclusion.cli, exclusion.calculus, exclusion.counterexample
    semantics, kernel = exclusion.semantics, exclusion.kernel
    return {
        "parsing.parse_sigma": [(api, "parse_sigma")],
        "parsing.parse_atom": [(api, "parse_atom"), (cli, "parse_atom")],
        "parsing.read_team_csv": [(cli, "read_team_csv")],
        "decision.decide": [(api, "decide")],
        "calculus.synthesize": [(api, "synthesize")],
        # synthesize self-checks through the module's own binding
        "calculus.check_derivation": [(api, "check_derivation"), (calculus, "check_derivation")],
        # decide plans through ``cx.plan``
        "counterexample.plan": [(api, "plan"), (cx, "plan")],
        "counterexample.build_team": [(cx, "build_team")],
        "counterexample.verify": [(cx, "verify")],
        # satisfies and min_degree reach min_removal inside semantics
        "semantics.min_removal": [(cli, "min_removal"), (semantics, "min_removal")],
        # verify and satisfies_all reach satisfies
        "semantics.satisfies": [(cli, "satisfies"), (cx, "satisfies"), (semantics, "satisfies")],
        "kernel.enumerate_packed": [(kernel, "enumerate_packed")],
        "kernel.conflict_words": [(kernel, "conflict_words")],
        "sweep.satisfaction_mask": [(exclusion.sweep.TeamBank, "satisfaction_mask")],
        "kernel.any_counterexample": [(api, "any_counterexample")],
        "cli.main": [(api, "cli_main")],
    }


def _count_result(counts: Counter, name: str, result) -> None:
    if name == "decision.decide":
        counts["decide.ok"] += 1
        if result.holds:
            counts["decide.yes"] += 1
            kind = WITNESS_KINDS.get(type(result.witness).__name__)
            if kind:
                counts[f"decision.witness.{kind}"] += 1
    elif name == "calculus.synthesize":
        counts["calculus.synthesize.steps"] += len(result.steps)
    elif name == "calculus.check_derivation":
        counts["calculus.check_derivation.rejects"] += not result.ok
    elif name == "counterexample.plan":
        counts["counterexample.plan.nontransitive"] += not result.transitive
    elif name == "counterexample.verify":
        counts["verify.accepted"] += bool(result)
    elif name == "kernel.enumerate_packed":
        counts["kernel.enumerate_packed.teams"] += len(result[1])
    elif name == "kernel.any_counterexample":
        counts["scan.hits"] += bool(result)


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``restore`` unwraps."""

    def __init__(self, capacity_error):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._capacity_error = capacity_error
        self._saved: list = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._capacity_error:
                if name == "semantics.min_removal":
                    counts["semantics.min_removal.capacity_refusals"] += 1
                raise
            finally:
                spans[index] = (self.op, name, start, perf_counter(), parent)
                stack.pop()
            _count_result(counts, name, result)
            return result

        return traced

    def install(self, bindings) -> None:
        for name, places in bindings.items():
            for owner, attr in places:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def metrics(self, ops: int, scale: float) -> dict:
        """Every per-layer metric, aggregated from the recorded spans, with
        span times multiplied by ``scale`` (see ``speed.py``)."""
        busy = Counter()
        self_s = Counter()
        calls = Counter()
        for op, name, start, end, parent in self.spans:
            duration = end - start
            busy[name] += duration
            self_s[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][1]] -= duration
        c = self.counts
        values = {}
        for layer in LAYERS:
            values[f"{layer}.busy_s"] = busy[layer] * scale
            values[f"{layer}.self_s"] = self_s[layer] * scale
            values[f"{layer}.calls"] = calls[layer]
        for name, _, _ in EXTRAS:
            values[name] = c[name]
        values["decision.yes_share"] = _ratio(c["decide.yes"], c["decide.ok"])
        values["counterexample.verify.accept_ratio"] = _ratio(
            c["verify.accepted"], calls["counterexample.build_team"]
        )
        values["semantics.min_removal.calls_per_op"] = _ratio(
            calls["semantics.min_removal"], ops
        )
        values["kernel.any_counterexample.hit_ratio"] = _ratio(
            c["scan.hits"], calls["kernel.any_counterexample"]
        )
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        return {name: {"value": values[name], "unit": units[name]} for name in units}


def _ratio(num, den) -> float:
    return num / den if den else 0.0
