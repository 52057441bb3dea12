"""Command-line front end.

Subcommands: check (decide an implication), eval (measure one atom
against a CSV team), counterexample (emit a separating team), derive
(emit a checked derivation), oracle-check (compare the decision with the
bounded brute-force oracle).

Exit codes: 0 decided, 1 internal error, 2 parse error (an unreadable or
unwritable file and a negative bound included), 3 unsupported degree, 4
wrong-direction command, 5 capacity.  JSON outputs carry "format": 1 and
no timing, so repeated runs print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .calculus import synthesize, write_derivation
from .counterexample import domain_size_bound, verified_counterexample
from .counterexample import plan as counterexample_plan
from .decision import decide
from .errors import EXIT_OK, EXIT_WRONG_DIRECTION, ExclusionError
from .model import column_index
from .oracle import DEFAULT_BUDGET, oracle_implies
from .parsing import (
    parse_atom,
    read_sigma_file,
    read_team_csv,
    render_human,
    team_csv_text,
    write_team_csv,
)
# perfbench/spans.py looks up read_team_csv and parse_atom (above) and
# min_removal and satisfies (below) in this module by name and wraps them to
# time their layers, so all four stay bound here; min_removal and satisfies
# are not called here
from .semantics import (  # noqa: F401
    min_removal,
    min_removal_indexed,
    satisfies,
    within_budget,
)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_check(args) -> int:
    sigma = read_sigma_file(args.sigma_file)
    goal = parse_atom(args.goal)
    started = time.perf_counter()
    verdict = decide(sigma, goal)
    elapsed = time.perf_counter() - started
    kind = verdict.witness.kind if verdict.holds else verdict.plan.kind
    certificate_path = None
    if args.certificate:
        certificate_path = args.certificate
        if verdict.holds:
            write_derivation(synthesize(sigma, goal, verdict.witness), certificate_path)
        else:
            write_team_csv(verified_counterexample(verdict.plan), certificate_path)
    if args.json:
        payload = {
            "format": 1,
            "holds": verdict.holds,
            "witness": kind,
            "goal": render_human(goal),
        }
        if certificate_path:
            payload["certificate"] = certificate_path
        _print_json(payload)
    else:
        print(f"holds: {'true' if verdict.holds else 'false'}")
        print(f"witness: {kind}")
        print(f"time: {elapsed * 1000:.2f} ms")
        if certificate_path:
            print(f"certificate: {certificate_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    schema, columns, duplicates = read_team_csv(args.team_csv)
    atom = parse_atom(args.atom)
    if duplicates:
        print(f"warning: {duplicates} duplicate rows collapsed", file=sys.stderr)
    left_idx = tuple(column_index(schema, var) for var in atom.left)
    right_idx = tuple(column_index(schema, var) for var in atom.right)
    # one removal search: satisfaction and the smallest degree follow from it
    removal = min_removal_indexed(columns, left_idx, right_idx)
    size = len(columns[0])
    satisfied = within_budget(removal, atom.degree, size)
    degree = None if size == 0 else Fraction(removal, size)
    if args.json:
        payload = {
            "format": 1,
            "atom": render_human(atom),
            "satisfied": satisfied,
            "min_removal": removal,
        }
        if degree is not None:
            payload["min_degree"] = str(degree)
        _print_json(payload)
    else:
        print(f"atom: {render_human(atom)}")
        print(f"satisfied: {'true' if satisfied else 'false'}")
        print(f"min_removal: {removal}")
        if degree is not None:
            print(f"min_degree: {degree}")
    return EXIT_OK


def cmd_counterexample(args) -> int:
    sigma = read_sigma_file(args.sigma_file)
    goal = parse_atom(args.goal)
    verdict = decide(sigma, goal)
    if verdict.holds:
        print("implication holds; no counterexample exists")
        return EXIT_WRONG_DIRECTION
    plan = verdict.plan
    team = verified_counterexample(plan)
    write_team_csv(team, args.out_csv)
    print(f"l={plan.l} k={plan.k} domain-bound={domain_size_bound(plan)}")
    print(f"wrote {args.out_csv} ({team.size} rows)")
    return EXIT_OK


def cmd_derive(args) -> int:
    sigma = read_sigma_file(args.sigma_file)
    goal = parse_atom(args.goal)
    verdict = decide(sigma, goal)
    if not verdict.holds:
        print(
            "implication does not hold; "
            "the counterexample command produces a separating team"
        )
        return EXIT_WRONG_DIRECTION
    derivation = synthesize(sigma, goal, verdict.witness)
    write_derivation(derivation, args.out_json)
    print(f"wrote {args.out_json} ({len(derivation.steps)} steps)")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    sigma = read_sigma_file(args.sigma_file)
    goal = parse_atom(args.goal)
    verdict = decide(sigma, goal)
    if goal.degree == 1:
        # every team satisfies the goal, so no plan bounds a refutation;
        # one row of one value stands for all teams
        rows = values = 1
    else:
        # the bounds within which a refutation must appear, if any
        plan = verdict.plan or counterexample_plan(sigma, goal)
        rows, values = plan.k, domain_size_bound(plan)
    max_rows = rows if args.max_rows is None else args.max_rows
    domain = values if args.domain is None else args.domain
    result = oracle_implies(
        sigma, goal, max_rows=max_rows, max_values=domain, budget=args.budget
    )
    print(f"decision: holds={'true' if verdict.holds else 'false'}")
    print(
        f"oracle:   holds={'true' if result.implied else 'false'} "
        f"(max_rows={max_rows}, domain={domain}, teams={result.teams_checked})"
    )
    if result.implied == verdict.holds:
        print("agree")
        return EXIT_OK
    if result.implied:
        # decide said NO and the oracle found no team; below the bounds of
        # the planned team, that proves nothing
        if max_rows < rows or domain < values:
            print(
                f"inconclusive: bounds max_rows={max_rows}, domain={domain} are "
                f"below the plan's max_rows={rows}, domain={values}"
            )
            return EXIT_OK
    print("DISAGREEMENT between decision and oracle")
    if result.counterexample is not None:
        print("separating team:")
        print(team_csv_text(result.counterexample), end="")
    return 1


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excl",
        description="Decide and audit implication of approximate exclusion atoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide whether assumptions imply a goal")
    check.add_argument("sigma_file", help="file with one assumption atom per line")
    check.add_argument("goal", help="goal atom, e.g. 'excl[1/4](x ; y)'")
    check.add_argument("--json", action="store_true", help="machine-readable report")
    check.add_argument(
        "--certificate",
        metavar="PATH",
        help="write a derivation (holds) or counterexample CSV (fails) here",
    )
    check.set_defaults(func=cmd_check)

    evaluate = sub.add_parser("eval", help="measure one atom against a CSV team")
    evaluate.add_argument("team_csv", help="CSV file, header row names the variables")
    evaluate.add_argument("atom", help="atom to evaluate")
    evaluate.add_argument("--json", action="store_true", help="machine-readable report")
    evaluate.set_defaults(func=cmd_eval)

    counter = sub.add_parser(
        "counterexample", help="write a team separating assumptions from a goal"
    )
    counter.add_argument("sigma_file")
    counter.add_argument("goal")
    counter.add_argument("out_csv", help="where to write the team")
    counter.set_defaults(func=cmd_counterexample)

    derive = sub.add_parser("derive", help="write a checked derivation of the goal")
    derive.add_argument("sigma_file")
    derive.add_argument("goal")
    derive.add_argument("out_json", help="where to write the derivation")
    derive.set_defaults(func=cmd_derive)

    oracle = sub.add_parser(
        "oracle-check", help="compare the decision with the bounded oracle"
    )
    oracle.add_argument("sigma_file")
    oracle.add_argument("goal")
    oracle.add_argument(
        "--max-rows", type=non_negative, help="team size bound (default: planned)"
    )
    oracle.add_argument(
        "--domain", type=non_negative, help="value count bound (default: planned)"
    )
    oracle.add_argument(
        "--budget", type=non_negative, default=DEFAULT_BUDGET, help="max teams to enumerate"
    )
    oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExclusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
