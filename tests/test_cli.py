"""Command line interface: subcommands, exit codes, and stable output."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exclusion
from exclusion import check_derivation, parse_team_csv
from exclusion.calculus import derivation_from_json
from exclusion.cli import build_parser, main
from exclusion.errors import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_PARSE,
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


class TestColdImport:
    def test_cli_import_leaves_numpy_out(self):
        # numpy is only needed by the packed-team kernel; importing it on
        # the way to the CLI would about double the CLI's cold start
        src = str(Path(exclusion.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, exclusion, exclusion.cli; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
