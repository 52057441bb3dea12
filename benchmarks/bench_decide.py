"""Per-call time of parsing, deciding and planning, parent against change.

    python benchmarks/bench_decide.py --parent OTHER/src [--repeats 7]

Times per call are the fastest of repeated passes over each case's calls
(``bench_certify._time_per_call``).  On 1000-atom premise files at arity
5, 10, 20 and 40 (60 variables, degrees 0, 1/4 and 1/3), the shape of
``decide-large``, it times:

* ``parse_sigma`` on the file's text;
* ``decide`` on one goal that holds (a premise's pairs, shuffled, with one
  pair appended and the premise's degree) and one that does not (a random
  goal drawn until the answer is NO); a NO includes its ``plan``;
* ``decide`` plus ``synthesize`` on the goal that holds: where the
  derivation's route is searched differs between trees, so this is the
  case that compares like with like;
* ``check_derivation`` on that goal's derivation;
* ``counterexample.plan`` alone, on the NO goal.

Three files per arity.  On 2000 seeded keystone instances, drawn as
``keystone-slice`` draws them (a goal and 0, 1 or 2 premises from
``sweep.keystone_atoms()``, 2 half the time), where a call's fixed cost
is most of its time, it times ``decide``, ``plan``, and ``decide`` plus
``plan`` (for a YES) plus ``domain_size_bound``, the package's part of a
``keystone-slice`` operation, and ``check_derivation`` on the YES
derivations.

``--parent``, ``--change``, ``--repeats`` and ``--out`` work as in
``bench_certify.py``: one fresh interpreter per tree and repeat,
alternating which tree goes first, and a digest of what each tree
returned (the parsed atoms, the derivation text of each YES, every plan's
parameters and built team CSV, and every keystone verdict) so the JSON
records whether both trees answered alike.  The digest reads only what
every tree has, so trees whose plans store different fields compare.  The output, ``benchmarks/BENCH_decide.json`` by
default, holds per-case medians, every repeat, the machine, Python,
numpy, the kernel lane and the repeat count.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from bench_certify import (
    ARITIES,
    DEGREES,
    NAMES,
    SEED,
    _premise_files,
    _random_side,
    _time_per_call,
    compare,
)

KEYSTONE_INSTANCES = 2000


def _plan_fields(ex, plan):
    team = ex.parsing.team_csv_text(ex.counterexample.build_team(plan))
    return (plan.kind, plan.goal, plan.l, plan.k, plan.r, plan.schema,
            plan.extra_vars, plan.transitive, team)


def _goals(ex, rng, sigma, arity):
    """(a goal that holds, a goal that does not) over the parsed premises."""
    premise = rng.choice(sigma)
    pairs = list(zip(premise.left, premise.right))
    rng.shuffle(pairs)
    pairs.insert(rng.randint(0, len(pairs)), (rng.choice(NAMES), rng.choice(NAMES)))
    yes = ex.model.Atom(tuple(a for a, _ in pairs), tuple(b for _, b in pairs), premise.degree)
    while True:
        no = ex.model.Atom(
            _random_side(rng, NAMES, arity), _random_side(rng, NAMES, arity), rng.choice(DEGREES)
        )
        if not ex.decision.decide(sigma, no).holds:
            return yes, no


def child(src: str) -> None:
    sys.path.insert(0, src)
    import exclusion.calculus
    import exclusion.counterexample
    import exclusion.decision
    import exclusion.kernel
    import exclusion.model
    import exclusion.parsing
    import exclusion.sweep

    ex = exclusion
    parse_sigma, decide, plan = ex.parsing.parse_sigma, ex.decision.decide, ex.counterexample.plan
    domain_size_bound = ex.counterexample.domain_size_bound
    synthesize, to_text = ex.calculus.synthesize, ex.calculus.derivation_to_json_str
    check_derivation = ex.calculus.check_derivation
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    times = {}

    for arity, texts in _premise_files(rng).items():
        sigmas = [parse_sigma(text) for text in texts]
        goals = [_goals(ex, rng, sigma, arity) for sigma in sigmas]
        derivations = []
        for sigma, (yes, no) in zip(sigmas, goals):
            verdicts = decide(sigma, yes), decide(sigma, no)
            assert verdicts[0].holds and not verdicts[1].holds
            derivations.append(synthesize(sigma, yes, verdicts[0].witness))
            assert check_derivation(derivations[-1]).ok
            digest.update(repr(sigma).encode())
            digest.update(to_text(derivations[-1]).encode())
            digest.update(repr(_plan_fields(ex, verdicts[1].plan)).encode())
            digest.update(repr(_plan_fields(ex, plan(sigma, no))).encode())
        times[f"parse_sigma.1000x{arity}"] = _time_per_call(
            [lambda t=t: parse_sigma(t) for t in texts], 1.0
        )
        pairs = list(zip(sigmas, goals))
        times[f"decide_yes.1000x{arity}"] = _time_per_call(
            [lambda s=s, g=g[0]: decide(s, g) for s, g in pairs], 0.5
        )
        times[f"certify_yes.1000x{arity}"] = _time_per_call(
            [lambda s=s, g=g[0]: synthesize(s, g, decide(s, g).witness) for s, g in pairs], 0.5
        )
        times[f"check_derivation.1000x{arity}"] = _time_per_call(
            [lambda d=d: check_derivation(d) for d in derivations], 0.5
        )
        times[f"decide_no.1000x{arity}"] = _time_per_call(
            [lambda s=s, g=g[1]: decide(s, g) for s, g in pairs], 0.5
        )
        times[f"plan.1000x{arity}"] = _time_per_call(
            [lambda s=s, g=g[1]: plan(s, g) for s, g in pairs], 0.5
        )

    keystone = ex.sweep.keystone_atoms()
    instances = [
        (tuple(rng.sample(keystone, rng.choice((0, 1, 2, 2)))), rng.choice(keystone))
        for _ in range(KEYSTONE_INSTANCES)
    ]
    keystone_derivations = []
    for sigma, goal in instances:
        verdict = decide(sigma, goal)
        digest.update(repr((verdict.holds, verdict.witness)).encode())
        if verdict.holds:
            keystone_derivations.append(synthesize(sigma, goal, verdict.witness))
        digest.update(repr(_plan_fields(ex, verdict.plan or plan(sigma, goal))).encode())

    def slice_op(sigma, goal):
        domain_size_bound(decide(sigma, goal).plan or plan(sigma, goal))

    for name, f in (("decide", decide), ("plan", plan), ("slice_op", slice_op)):
        times[f"{name}.keystone"] = _time_per_call(
            [lambda s=s, g=g: f(s, g) for s, g in instances], 0.5
        )
    times["check_derivation.keystone"] = _time_per_call(
        [lambda d=d: check_derivation(d) for d in keystone_derivations], 0.5
    )

    print(json.dumps({
        "lane": ex.kernel.IMPLEMENTATION,
        "digest": digest.hexdigest(),
        "seconds_per_call": times,
    }))


def main(argv=None) -> int:
    return compare("decide", __file__, child, __doc__.split("\n\n")[0], argv)


if __name__ == "__main__":
    sys.exit(main())
