"""Command line interface: subcommands, exit codes, and stable output."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exclusion
from exclusion import check_derivation, parse_team_csv
from exclusion.certificate import derivation_from_json
from exclusion.cli import build_parser, main
from exclusion.errors import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNDECIDED,
    EXIT_UNSUPPORTED_DEGREE,
    EXIT_WRONG_DIRECTION,
)
from exclusion.oracle import DEFAULT_BUDGET

TABLE_PAIR = "x,y\n0,0\n1,2\n"
TABLE_QUAD = "x,u,y,v\n0,1,0,1\n0,2,0,2\n1,2,2,1\n"


@pytest.fixture
def sigma_file(tmp_path):
    def write(text):
        path = tmp_path / "sigma.txt"
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def team_file(tmp_path):
    def write(text):
        path = tmp_path / "team.csv"
        path.write_text(text)
        return str(path)

    return write


class TestCheck:
    def test_arity_switch_holds(self, sigma_file, capsys):
        code = main(
            ["check", sigma_file("excl(x1 w1 w2 ; y1 w1 w2)"), "excl(z1 z1 ; x1 y1)"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "holds: true" in out
        assert "witness: domination" in out
        assert "time:" in out

    def test_failing_goal_reports_false(self, sigma_file, capsys):
        code = main(["check", sigma_file(""), "excl(x1 ; y1)"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "holds: false" in out

    def test_true_certificate_written(self, sigma_file, tmp_path, capsys):
        cert = tmp_path / "derivation.json"
        code = main(
            [
                "check",
                sigma_file("excl(x1 ; y1)"),
                "excl[1/4](x1 u1 ; y1 v1)",
                "--certificate",
                str(cert),
            ]
        )
        assert code == EXIT_OK
        derivation = derivation_from_json(json.loads(cert.read_text()))
        assert check_derivation(derivation).ok
        rules = [s.rule.value for s in derivation.steps]
        assert rules == ["HYP", "A3", "A7"]

    def test_false_certificate_is_team_csv(self, sigma_file, tmp_path, capsys):
        cert = tmp_path / "counterexample.csv"
        code = main(
            ["check", sigma_file(""), "excl(x1 ; y1)", "--certificate", str(cert)]
        )
        assert code == EXIT_OK
        team, duplicates = parse_team_csv(cert.read_text())
        assert duplicates == 0
        assert team.size == 2

    def test_json_output_is_stable(self, sigma_file, capsys):
        argv = ["check", sigma_file("excl(x ; y)"), "excl(x ; y)", "--json"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["format"] == 1
        assert payload["holds"] is True
        assert payload["witness"] == "domination"
        assert "time" not in payload
        for sigma, goal, kind in [
            ("excl(x ; y)", "excl(x u ; y v)", "domination"),
            ("excl(x ; x)", "excl(u ; v)", "contradiction"),
        ]:
            assert main(["check", sigma_file(sigma), goal, "--json"]) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            assert payload["holds"] is True
            assert payload["witness"] == kind

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # spreadsheet "CSV UTF-8" exports start with one
        path = tmp_path / "sigma.txt"
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(prefix + b"excl(x1 w1 w2 ; y1 w1 w2)\n")
            assert main(["check", str(path), "excl(z1 z1 ; x1 y1)", "--json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_unsupported_degree_band(self, sigma_file, capsys):
        code = main(["check", sigma_file(""), "excl[3/4](x1 ; y1)"])
        err = capsys.readouterr().err
        assert code == EXIT_UNSUPPORTED_DEGREE
        assert "error:" in err

    def test_degree_one_goal_holds(self, sigma_file, capsys):
        code = main(["check", sigma_file(""), "excl[1](x ; x)"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "holds: true" in out
        assert "witness: vacuous-degree" in out

    def test_parse_error_in_goal(self, sigma_file, capsys):
        code = main(["check", sigma_file(""), "excl(broken"])
        assert code == EXIT_PARSE

    def test_missing_sigma_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "absent.txt"), "excl(x ; y)"])
        assert code == EXIT_PARSE


class TestEval:
    def test_pair_table_satisfied(self, team_file, capsys):
        code = main(["eval", team_file(TABLE_PAIR), "excl[1/2](x ; y)"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "satisfied: true" in out
        assert "min_removal: 1" in out
        assert "min_degree: 1/2" in out

    def test_quad_table_falsified(self, team_file, capsys):
        code = main(["eval", team_file(TABLE_QUAD), "excl[1/2](x u ; y v)"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "satisfied: false" in out
        assert "min_removal: 2" in out
        assert "min_degree: 2/3" in out

    def test_empty_team_skips_min_degree(self, team_file, capsys):
        code = main(["eval", team_file("x,y\n"), "excl(x ; y)"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "satisfied: true" in out
        assert "min_removal: 0" in out
        assert "min_degree" not in out

    def test_duplicate_rows_warn_on_stderr(self, team_file, capsys):
        code = main(["eval", team_file("x\n0\n0\n"), "excl(x ; x)"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "1 duplicate" in captured.err

    def test_json_payload(self, team_file, capsys):
        code = main(["eval", team_file(TABLE_QUAD), "excl[1/2](x u ; y v)", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["satisfied"] is False
        assert payload["min_removal"] == 2
        assert payload["min_degree"] == "2/3"

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        path = tmp_path / "team.csv"
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(prefix + TABLE_QUAD.encode())
            assert main(["eval", str(path), "excl[1/2](x u ; y v)", "--json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_unknown_variable(self, team_file, capsys):
        code = main(["eval", team_file(TABLE_PAIR), "excl(z ; y)"])
        assert code == EXIT_PARSE

    def test_degree_one_still_reports_removal(self, team_file, capsys):
        code = main(["eval", team_file(TABLE_QUAD), "excl[1](x u ; y v)", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["satisfied"] is True
        assert payload["min_removal"] == 2
        assert payload["min_degree"] == "2/3"

    @pytest.mark.parametrize("degree", ["0", "1"])
    def test_over_cap_search_is_refused(self, team_file, capsys, degree):
        # a chain of rows c{i},c{i+1} with distinct end values c0 and end:
        # the 21 values c1..c21 each sit on both sides and link through
        # shared rows, so they form one component of 21 choices, past the
        # 20-choice cap
        rows = [f"c{i},c{i + 1}" for i in range(21)] + ["c21,end"]
        table = "x,y\n" + "\n".join(rows) + "\n"
        code = main(["eval", team_file(table), f"excl[{degree}](x ; y)"])
        assert code == EXIT_CAPACITY
        assert capsys.readouterr().out == ""

    def test_independent_values_past_the_cap_are_answered(self, team_file, capsys):
        # 21 values, each removable from either side, sharing no rows: 21
        # components of one choice each, so the cap of 20 is not reached
        rows = [f"c{i},r{i}\nl{i},c{i}" for i in range(21)]
        path = team_file("x,y\n" + "\n".join(rows) + "\n")
        assert main(["eval", path, "excl[1/2](x ; y)"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "atom: x |[1/2]| y\nsatisfied: true\nmin_removal: 21\nmin_degree: 1/2\n"
        )
        assert main(["eval", path, "excl(x ; y)", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfied"] is False
        assert payload["min_removal"] == 21
        assert payload["min_degree"] == "1/2"


def predicted_eval(text, atom_text, as_json):
    """(stdout, stderr, exit code) of `excl eval` as the Team-level library
    predicts them: parse_team_csv, parse_atom and min_removal."""
    team, duplicates = parse_team_csv(text)
    goal = exclusion.parse_atom(atom_text)
    err = f"warning: {duplicates} duplicate rows collapsed\n" if duplicates else ""
    try:
        removal = exclusion.min_removal(team, goal)
    except exclusion.ExclusionError as exc:
        return "", err + f"error: {exc}\n", exc.exit_code
    satisfied = removal * goal.degree.denominator <= goal.degree.numerator * team.size
    degree = None if team.is_empty() else Fraction(removal, team.size)
    if as_json:
        payload = {"format": 1, "atom": str(goal), "satisfied": satisfied,
                   "min_removal": removal}
        if degree is not None:
            payload["min_degree"] = str(degree)
        return json.dumps(payload, indent=2) + "\n", err, EXIT_OK
    out = f"atom: {goal}\nsatisfied: {str(satisfied).lower()}\nmin_removal: {removal}\n"
    if degree is not None:
        out += f"min_degree: {degree}\n"
    return out, err, EXIT_OK


def seeded_table(seed):
    """40 rows over x, u, y, v from a pool of eight values, so that values
    conflict, with a few lines repeated."""
    rng = random.Random(seed)
    lines = [",".join(rng.choice("abcdefgh") for _ in range(4)) for _ in range(40)]
    lines += rng.sample(lines, 5)
    rng.shuffle(lines)
    return "x,u,y,v\n" + "\n".join(lines) + "\n"


class TestEvalMatchesLibrary:
    """The column-wise command prints what the Team-level library predicts."""

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize(
        "atom_text",
        [
            "excl(x ; y)",
            "excl[1/4](x u ; y v)",
            "excl[1/2](u ; v)",
            "excl[1](x ; x)",
            "excl(x w ; y v)",  # w is not in the schema
            "excl(x u ; y w)",
        ],
    )
    def test_same_bytes_and_exit_code(self, team_file, capsys, atom_text, as_json):
        text = seeded_table(20261019)
        expected = predicted_eval(text, atom_text, as_json)
        assert "duplicate rows collapsed" in expected[1]
        code = main(["eval", team_file(text), atom_text] + ["--json"] * as_json)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected


class TestCounterexample:
    def test_writes_separating_team(self, sigma_file, tmp_path, capsys):
        out_csv = tmp_path / "team.csv"
        code = main(
            [
                "counterexample",
                sigma_file("excl[1/3](x1 ; y1)"),
                "excl(x1 ; y1)",
                str(out_csv),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "l=1 k=3" in out
        team, _ = parse_team_csv(out_csv.read_text())
        assert team.size == 3

    def test_two_row_team_without_premises(self, sigma_file, tmp_path, capsys):
        out_csv = tmp_path / "team.csv"
        code = main(
            ["counterexample", sigma_file(""), "excl(x1 ; y1)", str(out_csv)]
        )
        assert code == EXIT_OK
        team, _ = parse_team_csv(out_csv.read_text())
        assert team.size == 2

    def test_holding_implication_refused(self, sigma_file, tmp_path, capsys):
        out_csv = tmp_path / "team.csv"
        code = main(
            ["counterexample", sigma_file("excl(x1 ; y1)"), "excl(x1 ; y1)", str(out_csv)]
        )
        out = capsys.readouterr().out
        assert code == EXIT_WRONG_DIRECTION
        assert "no counterexample" in out
        assert not out_csv.exists()


class TestDerive:
    def test_arity_switch_derivation(self, sigma_file, tmp_path, capsys):
        out_json = tmp_path / "derivation.json"
        code = main(
            [
                "derive",
                sigma_file("excl(x1 w1 ; y1 w1)"),
                "excl(z1 z1 ; x1 y1)",
                str(out_json),
            ]
        )
        assert code == EXIT_OK
        derivation = derivation_from_json(json.loads(out_json.read_text()))
        assert check_derivation(derivation).ok
        rules = [s.rule.value for s in derivation.steps]
        assert rules == ["HYP", "A6"]

    def test_contradiction_derivation(self, sigma_file, tmp_path, capsys):
        out_json = tmp_path / "derivation.json"
        code = main(
            ["derive", sigma_file("excl(x1 ; x1)"), "excl(a ; b)", str(out_json)]
        )
        assert code == EXIT_OK
        derivation = derivation_from_json(json.loads(out_json.read_text()))
        rules = [s.rule.value for s in derivation.steps]
        assert rules == ["HYP", "A1"]

    def test_non_implication_refused(self, sigma_file, tmp_path, capsys):
        out_json = tmp_path / "derivation.json"
        code = main(["derive", sigma_file(""), "excl(x1 ; y1)", str(out_json)])
        assert code == EXIT_WRONG_DIRECTION
        assert not out_json.exists()

    def test_large_arity_certificate_stays_small(self, sigma_file, tmp_path, capsys):
        # the goal shuffles the premise's 2,000 pairs and swaps its sides
        rng = random.Random(5)
        names = [f"v{i}" for i in range(200)]
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(2000)]
        premise = f"excl({' '.join(a for a, _ in pairs)} ; {' '.join(b for _, b in pairs)})"
        rng.shuffle(pairs)
        goal = f"excl[1/4]({' '.join(b for _, b in pairs)} ; {' '.join(a for a, _ in pairs)})"
        out_json = tmp_path / "derivation.json"
        assert main(["derive", sigma_file(premise), goal, str(out_json)]) == EXIT_OK
        assert out_json.stat().st_size < 1_000_000
        derivation = derivation_from_json(json.loads(out_json.read_text()))
        assert [s.rule.value for s in derivation.steps] == ["HYP", "PAIRS", "A7", "A2"]


class TestOracleCheck:
    def test_agreement_on_holding_instance(self, sigma_file, capsys):
        code = main(
            [
                "oracle-check",
                sigma_file("excl(x1 w1 w2 ; y1 w1 w2)"),
                "excl(z1 z1 ; x1 y1)",
                "--max-rows",
                "2",
                "--domain",
                "11",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "decision: holds=true" in out
        assert "agree" in out

    def test_agreement_on_failing_instance(self, sigma_file, capsys):
        code = main(
            [
                "oracle-check",
                sigma_file(""),
                "excl(x1 ; y1)",
                "--max-rows",
                "2",
                "--domain",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "decision: holds=false" in out
        assert "agree" in out

    def test_planned_bounds_fill_in(self, sigma_file, capsys):
        code = main(["oracle-check", sigma_file(""), "excl(x1 ; y1)"])
        assert code == EXIT_OK
        assert "agree" in capsys.readouterr().out

    @pytest.mark.parametrize("rows, domain", [("0", "0"), ("1", "1"), ("0", "9")])
    def test_bounds_below_the_plan_are_inconclusive(self, sigma_file, capsys, rows, domain):
        # the plan needs 2 rows and 5 values; a smaller space may hold no
        # separating team, so finding none is no disagreement
        code = main(
            ["oracle-check", sigma_file("excl(x ; y)"), "excl(x ; z)",
             "--max-rows", rows, "--domain", domain]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.splitlines()[0] == "decision: holds=false"
        assert out.splitlines()[2] == (
            f"inconclusive: bounds max_rows={rows}, domain={domain} are below "
            "the plan's max_rows=2, domain=5"
        )
        assert "DISAGREEMENT" not in out

    def test_bounds_at_the_plan_still_find_the_team(self, sigma_file, capsys):
        code = main(
            ["oracle-check", sigma_file("excl(x ; y)"), "excl(x ; z)",
             "--max-rows", "2", "--domain", "5"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[2] == "agree"

    @pytest.mark.parametrize("goal", ["excl[1](x ; x)", "excl[1](x ; y)"])
    @pytest.mark.parametrize(
        "bounds, shown",
        [([], "max_rows=1, domain=1"), (["--max-rows", "3"], "max_rows=3, domain=1")],
    )
    def test_degree_one_goal_needs_no_plan(self, sigma_file, capsys, goal, bounds, shown):
        # every team satisfies a degree-1 goal: no plan exists, and the
        # default bounds are one row over one value
        code = main(["oracle-check", sigma_file("excl(a ; b)"), goal, *bounds])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert out[0] == "decision: holds=true"
        assert out[1] == f"oracle:   holds=true ({shown}, teams=2)"
        assert out[2] == "agree"

    def test_budget_exhaustion(self, sigma_file, capsys):
        code = main(
            [
                "oracle-check",
                sigma_file("excl(x ; y)"),
                "excl(x ; y)",
                "--max-rows",
                "3",
                "--domain",
                "9",
                "--budget",
                "5",
            ]
        )
        assert code == EXIT_CAPACITY

    def test_budget_defaults_to_the_oracle_budget(self):
        args = build_parser().parse_args(["oracle-check", "sigma.txt", "excl(x ; y)"])
        assert args.budget == DEFAULT_BUDGET


class TestDegreeGap:
    def test_team_past_the_row_cap_exits_5(self, tmp_path):
        # a premise degree 1/400,000,000 above the goal's would need a team
        # of about 10**8 rows
        (tmp_path / "sigma.txt").write_text("excl[100000001/400000000](c ; d)\n")
        out = subprocess.run(
            [sys.executable, "-m", "exclusion.cli", "check", "sigma.txt", "excl[1/4](c ; e)"],
            env=SRC_ENV, cwd=tmp_path, capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == EXIT_CAPACITY
        assert "more than 1048576 rows" in out.stderr


class TestArgumentErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("flag", ["--max-rows", "--domain", "--budget"])
    def test_negative_bound_is_a_usage_error(self, flag, sigma_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["oracle-check", sigma_file(""), "excl(x ; y)", flag, "-1"])
        assert info.value.code == 2
        assert "must not be negative" in capsys.readouterr().err


class TestUnwritableOutput:
    """A certificate that cannot be written is an input error, like a file
    that cannot be read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "", "excl(x1 ; y1)", "{out}"],
            ["derive", "excl(x1 w1 w2 ; y1 w1 w2)", "excl(z1 z1 ; x1 y1)", "{out}"],
            ["check", "excl(x1 w1 w2 ; y1 w1 w2)", "excl(z1 z1 ; x1 y1)", "--certificate", "{out}"],
            ["check", "", "excl(x1 ; y1)", "--certificate", "{out}"],
        ],
    )
    def test_exit_code_and_message(self, argv, sigma_file, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out")
        command, sigma, *rest = argv
        code = main([command, sigma_file(sigma), *(a.format(out=out) for a in rest)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.err.startswith(f"error: cannot write {out}")
        assert captured.out == ""


class TestUnreadableInput:
    """A file that is not UTF-8 is an input error, like a missing one."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{csv}", "excl(x ; y)"],
            ["check", "{sigma}", "excl(x ; y)"],
            ["counterexample", "{sigma}", "excl(x ; y)", "{out}"],
            ["derive", "{sigma}", "excl(x ; y)", "{out}"],
            ["oracle-check", "{sigma}", "excl(x ; y)"],
        ],
    )
    def test_exit_code_and_message(self, argv, tmp_path, capsys):
        csv, sigma = tmp_path / "team.csv", tmp_path / "sigma.txt"
        csv.write_bytes(b"x,y\n\xff,1\n")
        sigma.write_bytes(b"excl(x ; y)\n\xff\n")
        names = {"csv": str(csv), "sigma": str(sigma), "out": str(tmp_path / "out")}
        code = main([a.format(**names) for a in argv])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.err.startswith("error: cannot read ")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestUndecided:
    """A NO whose planned team fails its check is refused with exit 6,
    never printed as a verdict."""

    # decide says NO, wrongly: the YES needs both premises together
    TWO_PREMISE = ("excl(a b ; e a)\nexcl[1/4](a ; e)\n", "excl[1/5](b e a b ; a b b e)")
    # a right NO whose shared-block team violates a | e beyond its budget
    SHARED_BLOCK = ("excl[1/3](a ; b)\nexcl[1/4](a ; e)\n", "excl(b e a b ; a b b e)")

    @pytest.mark.parametrize("instance", ["TWO_PREMISE", "SHARED_BLOCK"])
    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["check", "--json"],
            ["check", "--certificate", "{out}"],
            ["counterexample", "{out}"],
            ["derive", "{out}"],
        ],
        ids=["check", "check-json", "check-certificate", "counterexample", "derive"],
    )
    def test_refuses_unverified_no(self, command, instance, sigma_file, tmp_path, capsys):
        sigma, goal = getattr(self, instance)
        out = tmp_path / "out"
        name, *rest = command
        argv = [name, sigma_file(sigma), goal, *(arg.format(out=out) for arg in rest)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_UNDECIDED == 6
        assert captured.err.startswith("error: no verified counterexample")
        assert captured.out == ""
        assert not out.exists()


class TestParserReuse:
    """main builds its parser on the first call and reuses it; every later
    call must print what a freshly built parser would."""

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        # the human check report ends with its wall-clock time
        return code, re.sub(r"time: .* ms", "time: - ms", captured.out), captured.err

    def test_a_sequence_prints_what_fresh_parsers_do(self, sigma_file, team_file, capsys):
        sigma, team = sigma_file("excl(x ; y)"), team_file(TABLE_QUAD)
        calls = [
            ["eval", team, "excl[1/2](x u ; y v)", "--json"],
            ["eval", team, "excl[1/2](x u ; y v)"],
            ["oracle-check", sigma, "excl(x ; z)", "--max-rows", "-1"],
            ["oracle-check", sigma, "excl(x ; z)", "--max-rows", "1"],
            ["oracle-check", sigma, "excl(x ; z)"],
            ["check", sigma, "excl(x ; z)"],
        ]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        build_parser.cache_clear()
        reused = [self.run(argv, capsys) for argv in calls]
        assert reused == fresh
        assert json.loads(fresh[0][1])["min_removal"] == 2
        assert fresh[1][1].startswith("atom: ")
        assert fresh[2][0] == ("exit", 2)
        assert "max_rows=1, domain=5" in fresh[3][1]
        # no bound given: the planned bounds come back
        assert "max_rows=2, domain=5" in fresh[4][1]
        assert fresh[5][1].startswith("holds: false\n")

    def test_later_calls_build_no_parser(self, sigma_file, team_file, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        sigma, team = sigma_file("excl(x ; y)"), team_file(TABLE_PAIR)
        assert main(["eval", team, "excl(x ; y)"]) == EXIT_OK
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["eval", team, "excl(x ; y)", "--json"]) == EXIT_OK
        assert main(["check", sigma, "excl(x ; y)"]) == EXIT_OK
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert built == []
        # the counter does see a build
        build_parser.cache_clear()
        assert main(["check", sigma, "excl(x ; y)"]) == EXIT_OK
        assert built[0] == "excl"


SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(exclusion.__file__).resolve().parents[1]))

# the README's examples, written into a working directory by `readme_files`
README_SIGMA = "excl(x1 w1 w2 ; y1 w1 w2)\n"
README_YES = "excl(z1 z1 ; x1 y1)"


def readme_files(directory: Path) -> Path:
    directory.mkdir(exist_ok=True)
    (directory / "sigma.txt").write_text(README_SIGMA)
    (directory / "empty.txt").write_text("")
    (directory / "team.csv").write_text(TABLE_PAIR)
    return directory


def modules_after(statements: str, cwd=None) -> set[str]:
    """The package's modules, and numpy, loaded in a fresh interpreter
    once ``statements`` have run."""
    code = statements + (
        "\nimport sys\nprint(*sorted(m for m in sys.modules"
        " if m == 'numpy' or m.split('.')[0] == 'exclusion'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=SRC_ENV, cwd=cwd, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.split())


def modules_after_main(argv, cwd) -> set[str]:
    return modules_after(
        "import contextlib, io\nfrom exclusion.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0",
        cwd,
    )


# the planner and checker, and the kernel of the acceptance gate
HEAVY = {"exclusion.calculus", "exclusion.certificate", "exclusion.kernel", "exclusion.sweep"}


class TestColdImport:
    def test_cli_import_leaves_numpy_out(self):
        # numpy is only needed by the packed-team kernel; importing it on
        # the way to the CLI would about double the CLI's cold start
        code = "import sys, exclusion, exclusion.cli; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_package_import_loads_no_submodule(self):
        assert modules_after("import exclusion") == {"exclusion"}

    def test_kernel_loads_only_the_errors(self):
        loaded = modules_after("import exclusion.kernel") - {"numpy"}
        assert loaded == {"exclusion", "exclusion.errors", "exclusion.kernel"}

    def test_certificate_checker_loads_only_its_base(self):
        # the trusted base of a certificate check, without the planner or
        # the decision procedure
        assert modules_after("import exclusion.certificate") == {
            "exclusion", "exclusion.errors", "exclusion.model", "exclusion.certificate"
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--json", "sigma.txt", README_YES],
            ["check", "--certificate", "team_out.csv", "empty.txt", "excl(x1 ; y1)"],
            ["eval", "--json", "team.csv", "excl[1/2](x ; y)"],
            ["counterexample", "empty.txt", "excl(x1 ; y1)", "team_out.csv"],
            ["oracle-check", "sigma.txt", README_YES, "--max-rows", "1", "--domain", "2"],
        ],
        ids=["check", "check-certificate-no", "eval", "counterexample", "oracle-check"],
    )
    def test_commands_without_derivations_load_no_planner(self, argv, tmp_path):
        loaded = modules_after_main(argv, readme_files(tmp_path))
        deciding = {"exclusion.decision", "exclusion.counterexample"}
        if argv[0] == "eval":
            # eval measures one atom against a table and decides nothing
            assert "exclusion.semantics" in loaded
            assert not loaded & deciding
        else:
            assert deciding <= loaded
        assert not loaded & (HEAVY | {"numpy"})
        # the bounded oracle is loaded by the one command that runs it
        assert ("exclusion.oracle" in loaded) == (argv[0] == "oracle-check")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--certificate", "proof.json", "sigma.txt", README_YES],
            ["derive", "sigma.txt", README_YES, "proof.json"],
        ],
        ids=["check-certificate-yes", "derive"],
    )
    def test_commands_that_write_derivations_load_the_calculus(self, argv, tmp_path):
        loaded = modules_after_main(argv, readme_files(tmp_path))
        assert {"exclusion.calculus", "exclusion.certificate"} <= loaded
        assert not loaded & {"exclusion.kernel", "exclusion.oracle", "exclusion.sweep", "numpy"}


class TestStandardLibraryOnly:
    """`excl` on an interpreter without site-packages (``-S``), where numpy
    cannot be imported, prints what it prints with them."""

    def test_numpy_is_out_of_reach(self):
        out = subprocess.run(
            [sys.executable, "-S", "-c", "import numpy"],
            env=SRC_ENV, capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert "No module named 'numpy'" in out.stderr

    @pytest.mark.parametrize(
        "argv, written",
        [
            (["check", "--json", "sigma.txt", README_YES], None),
            (["check", "--json", "--certificate", "proof.json", "sigma.txt", README_YES],
             "proof.json"),
            (["check", "--json", "--certificate", "team_out.csv", "empty.txt", "excl(x1 ; y1)"],
             "team_out.csv"),
            (["eval", "--json", "team.csv", "excl[1/2](x ; y)"], None),
            (["counterexample", "empty.txt", "excl(x1 ; y1)", "team_out.csv"], "team_out.csv"),
            (["derive", "sigma.txt", README_YES, "proof.json"], "proof.json"),
            (["oracle-check", "sigma.txt", README_YES, "--max-rows", "2", "--domain", "11"],
             None),
        ],
        ids=["check", "check-certificate-yes", "check-certificate-no", "eval",
             "counterexample", "derive", "oracle-check"],
    )
    def test_same_output_without_site_packages(self, argv, written, tmp_path):
        results = []
        for flags, name in (([], "site"), (["-S"], "no-site")):
            cwd = readme_files(tmp_path / name)
            out = subprocess.run(
                [sys.executable, *flags, "-m", "exclusion.cli", *argv],
                env=SRC_ENV, cwd=cwd, capture_output=True, text=True,
            )
            results.append((out.returncode, out.stdout, written and (cwd / written).read_bytes()))
        assert results[0] == results[1]
        assert results[0][0] == EXIT_OK
