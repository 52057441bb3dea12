"""Per-call time of parsing, deciding, planning and verifying, parent
against change.

    python benchmarks/bench_decide.py --parent OTHER/src [--repeats 7]

Times per call are the fastest of repeated passes over each case's calls
(``harness._time_per_call``).  On 1000-atom premise files at arity 5, 10,
20 and 40 (60 variables, degrees 0, 1/4 and 1/3), the shape of
``decide-large``, it times:

* ``parse_sigma`` on the file's text;
* ``decide`` on one goal that holds, derived from a random premise by
  ``perfbench/gen.py``'s ``derived_goal`` as ``decide-large`` derives its
  goals (the premise's pairs shuffled, the sides perhaps swapped, the
  degree perhaps raised), and one that does not, a ``gen.random_atom``
  drawn until the answer is NO; a NO includes its ``plan``;
* ``decide`` plus ``synthesize`` on the goal that holds: where the
  derivation's route is searched differs between trees, so this is the
  case that compares like with like;
* ``check_derivation`` on that goal's derivation;
* ``counterexample.plan`` alone, on the NO goal;
* ``counterexample.verify`` on the NO goal's planned team, built before
  timing.

Three files per arity.  On 2000 seeded keystone instances, drawn as
``keystone-slice`` draws them (a goal and 0, 1 or 2 premises from
``sweep.keystone_atoms()``, 2 half the time), where a call's fixed cost
is most of its time, it times ``decide``, ``plan``, and ``decide`` plus
``plan`` (for a YES) plus ``domain_size_bound``, the package's part of a
``keystone-slice`` operation, ``check_derivation`` on the YES derivations
and ``verify`` on the NO answers' planned teams.

On 6000 seeded ``certify-small`` queries, drawn by ``perfbench/gen.py``
as that workload draws them (5 variables, arity at most 4, at most 3
premises, a derived goal every other query) and parsed from their text,
it times ``parse_sigma`` on each premise text plus ``parse_atom`` on its
goal text, as the workload reads a query, ``synthesize`` and
``check_derivation`` on the YES answers, and
``verified_counterexample`` and ``verify`` of the built team on the NO
answers whose team verifies (the known refused plans raise and are only
counted).  ``synthesize.a6`` times ``synthesize`` on the YES answers of the
keystone instances and the certify-small queries whose derivation has an
A6 step, the arity switch that ``calculus.a6_cover`` plans.

``--parent``, ``--change``, ``--repeats`` and ``--out`` work as in
``harness.compare_in_process``: both trees are imported into one
interpreter and timed case by case, alternating which tree goes first,
so the two timings of a case lie seconds apart.  A digest of what each
tree returned (the parsed atoms, the derivation text of each YES, every
plan's parameters and built team CSV, every keystone verdict, each
certify-small derivation text and team CSV, and every timed ``verify``
result) records whether both trees answered alike.  The digest reads
only what every tree has, so trees whose plans store different fields
compare.  The output,
``benchmarks/BENCH_decide.json`` by default, holds per-case medians,
every repeat, the machine, Python, numpy, the kernel lane and the repeat
count.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

from harness import compare_in_process

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen

SEED = 20261018
ARITIES = (5, 10, 20, 40)
PREMISES = 1000
NAMES = tuple(f"v{i}" for i in range(60))
KEYSTONE_INSTANCES = 2000
CERTIFY_SMALL_QUERIES = 6000


def _premise_files(rng):
    """arity -> three 1000-atom premise texts."""
    return {
        arity: [
            "\n".join(
                gen.atom_text(*gen.random_atom(rng, NAMES, arity)) for _ in range(PREMISES)
            )
            for _ in range(3)
        ]
        for arity in ARITIES
    }


def _plan_fields(ex, plan):
    team = ex.parsing.team_csv_text(ex.counterexample.build_team(plan))
    return (plan.kind, plan.goal, plan.l, plan.k, plan.r, plan.schema,
            plan.extra_vars, plan.transitive, team)


def _goals(ex, rng, sigma, arity):
    """(a goal that holds, a goal that does not) over the parsed premises."""
    premise = rng.choice(sigma)
    yes = ex.model.Atom(*gen.derived_goal(
        rng, (premise.left, premise.right, premise.degree), NAMES, arity))
    while True:
        no = ex.model.Atom(*gen.random_atom(rng, NAMES, arity))
        if not ex.decision.decide(sigma, no).holds:
            return yes, no


def _certify_small_texts():
    """The certify-small queries as (premise text, goal text) pairs."""
    rng = random.Random(SEED)
    names = tuple("abcde")
    queries = []
    while len(queries) < CERTIFY_SMALL_QUERIES:
        for derived in (True, False):
            sigma, goal = gen.instance(rng, names, rng.randint(0, 3), (1, 2, 3, 4), derived)
            queries.append(("\n".join(gen.atom_text(*a) for a in sigma), gen.atom_text(*goal)))
    return queries


def cases(ex) -> tuple[str, dict, dict]:
    """The digest of one tree's answers, its timed cases and (no) facts,
    as ``harness.compare_in_process`` takes them."""
    parse_sigma, decide, plan = ex.parsing.parse_sigma, ex.decision.decide, ex.counterexample.plan
    parse_atom = ex.parsing.parse_atom
    domain_size_bound = ex.counterexample.domain_size_bound
    build_team, verify = ex.counterexample.build_team, ex.counterexample.verify
    synthesize, to_text = ex.calculus.synthesize, ex.certificate.derivation_to_json_str
    check_derivation = ex.calculus.check_derivation

    def has_switch(derivation):
        return any(step.rule is ex.certificate.Rule.A6 for step in derivation.steps)

    rng = random.Random(SEED)
    digest = hashlib.sha256()
    timed = {}

    for arity, texts in _premise_files(rng).items():
        sigmas = [parse_sigma(text) for text in texts]
        goals = [_goals(ex, rng, sigma, arity) for sigma in sigmas]
        derivations, refuted = [], []
        for sigma, (yes, no) in zip(sigmas, goals):
            verdicts = decide(sigma, yes), decide(sigma, no)
            assert verdicts[0].holds and not verdicts[1].holds
            derivations.append(synthesize(sigma, yes, verdicts[0].witness))
            assert check_derivation(derivations[-1]).ok
            refuted.append((build_team(verdicts[1].plan), sigma, no))
            digest.update(repr(sigma).encode())
            digest.update(to_text(derivations[-1]).encode())
            digest.update(repr(_plan_fields(ex, verdicts[1].plan)).encode())
            digest.update(repr(_plan_fields(ex, plan(sigma, no))).encode())
        digest.update(repr([verify(*inst) for inst in refuted]).encode())
        pairs = list(zip(sigmas, goals))
        timed[f"parse_sigma.1000x{arity}"] = [lambda t=t: parse_sigma(t) for t in texts]
        timed[f"decide_yes.1000x{arity}"] = [lambda s=s, g=g[0]: decide(s, g) for s, g in pairs]
        timed[f"certify_yes.1000x{arity}"] = [
            lambda s=s, g=g[0]: synthesize(s, g, decide(s, g).witness) for s, g in pairs
        ]
        timed[f"check_derivation.1000x{arity}"] = [
            lambda d=d: check_derivation(d) for d in derivations
        ]
        timed[f"decide_no.1000x{arity}"] = [lambda s=s, g=g[1]: decide(s, g) for s, g in pairs]
        timed[f"plan.1000x{arity}"] = [lambda s=s, g=g[1]: plan(s, g) for s, g in pairs]
        timed[f"verify.1000x{arity}"] = [lambda i=i: verify(*i) for i in refuted]

    keystone = ex.sweep.keystone_atoms()
    instances = [
        (tuple(rng.sample(keystone, rng.choice((0, 1, 2, 2)))), rng.choice(keystone))
        for _ in range(KEYSTONE_INSTANCES)
    ]
    keystone_derivations, keystone_refuted, switched = [], [], []
    for sigma, goal in instances:
        verdict = decide(sigma, goal)
        digest.update(repr((verdict.holds, verdict.witness)).encode())
        if verdict.holds:
            keystone_derivations.append(synthesize(sigma, goal, verdict.witness))
            if has_switch(keystone_derivations[-1]):
                switched.append((sigma, goal, verdict.witness))
        else:
            keystone_refuted.append((build_team(verdict.plan), sigma, goal))
        digest.update(repr(_plan_fields(ex, verdict.plan or plan(sigma, goal))).encode())
    digest.update(repr([verify(*inst) for inst in keystone_refuted]).encode())

    def slice_op(sigma, goal):
        domain_size_bound(decide(sigma, goal).plan or plan(sigma, goal))

    for name, f in (("decide", decide), ("plan", plan), ("slice_op", slice_op)):
        timed[f"{name}.keystone"] = [lambda s=s, g=g, f=f: f(s, g) for s, g in instances]
    timed["check_derivation.keystone"] = [
        lambda d=d: check_derivation(d) for d in keystone_derivations
    ]
    timed["verify.keystone"] = [lambda i=i: verify(*i) for i in keystone_refuted]

    def parse_query(sigma_text, goal_text):
        return parse_sigma(sigma_text), parse_atom(goal_text)

    texts = _certify_small_texts()
    queries = [parse_query(*query) for query in texts]
    digest.update(repr(queries).encode())
    timed["parse_sigma.certify_small"] = [lambda q=q: parse_query(*q) for q in texts]
    yes, derivations, no, refuted = [], [], [], []
    for sigma, goal in queries:
        verdict = decide(sigma, goal)
        if verdict.holds:
            yes.append((sigma, goal, verdict.witness))
            derivations.append(synthesize(sigma, goal, verdict.witness))
            assert check_derivation(derivations[-1]).ok
            digest.update(to_text(derivations[-1]).encode())
            if has_switch(derivations[-1]):
                switched.append((sigma, goal, verdict.witness))
            continue
        try:
            team = ex.counterexample.verified_counterexample(verdict.plan)
        except ex.errors.InternalVerificationError:
            digest.update(b"refused")
            continue
        no.append(verdict.plan)
        refuted.append((team, sigma, goal))
        digest.update(ex.parsing.team_csv_text(team).encode())
    digest.update(repr([verify(*inst) for inst in refuted]).encode())
    timed["synthesize.certify_small"] = [
        lambda s=s, g=g, w=w: synthesize(s, g, w) for s, g, w in yes
    ]
    timed["synthesize.a6"] = [lambda s=s, g=g, w=w: synthesize(s, g, w) for s, g, w in switched]
    timed["check_derivation.certify_small"] = [lambda d=d: check_derivation(d) for d in derivations]
    timed["verified_counterexample.certify_small"] = [
        lambda p=p: ex.counterexample.verified_counterexample(p) for p in no
    ]
    timed["verify.certify_small"] = [lambda i=i: verify(*i) for i in refuted]

    return digest.hexdigest(), timed, {}


def main(argv=None) -> int:
    return compare_in_process("decide", cases, __doc__.split("\n\n")[0], argv)


if __name__ == "__main__":
    sys.exit(main())
