"""Atom grammar, assumption files, and team CSV round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusion import Atom, ParseError, atom, parse_atom, parse_team_csv
from exclusion.model import team_from_rows
from exclusion.parsing import (
    parse_rational,
    parse_sigma,
    render_atom,
    render_human,
    team_csv_text,
)


class TestParseRational:
    def test_forms(self):
        assert parse_rational("1/4") == Fraction(1, 4)
        assert parse_rational("0") == Fraction(0)
        assert parse_rational("1") == Fraction(1)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_interior_whitespace_tolerated(self):
        assert parse_rational(" 1 / 4 ") == Fraction(1, 4)

    def test_rejects_garbage(self):
        for text in ("", "x", "1/0", "1//2", "-1/4", "1.2.3", "1/4/2"):
            with pytest.raises(ParseError):
                parse_rational(text)


class TestParseAtom:
    def test_exact_atom(self):
        assert parse_atom("excl(x1 ; y1)") == atom("x1", "y1")

    def test_degree_forms(self):
        assert parse_atom("excl[1/4](x ; y)") == atom("x", "y", "1/4")
        assert parse_atom("excl[0.25](x ; y)") == atom("x", "y", "1/4")
        assert parse_atom("excl[1](x ; y)") == atom("x", "y", 1)

    def test_multi_variable_sides(self):
        assert parse_atom("excl(x1 x2 ; y1 y2)") == atom("x1 x2", "y1 y2")

    def test_whitespace_tolerance(self):
        assert parse_atom("  excl [ 1/3 ] ( x ; y )  ".replace(" [ ", "[").replace(" ] ", "]")) == atom(
            "x", "y", "1/3"
        )
        assert parse_atom("excl(  x1   x2  ;  y1   y2  )") == atom("x1 x2", "y1 y2")

    def test_malformed_inputs(self):
        bad = [
            "",
            "excl",
            "excl()",
            "excl(x)",
            "excl(x ; y ; z)",
            "excl(x ;)",
            "excl(; y)",
            "excl(x ; y",
            "excl[](x ; y)",
            "excl[1/0](x ; y)",
            "excl[2](x ; y)",
            "excl(x y ; z)",
            "excl(1x ; y)",
            "junk excl(x ; y)",
            "excl(x ; y) junk",
        ]
        for text in bad:
            with pytest.raises(ParseError):
                parse_atom(text)

    def test_arity_mismatch_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_atom("excl(x1 x2 ; y1)")


class TestRender:
    def test_machine_form(self):
        assert render_atom(atom("x", "y")) == "excl(x ; y)"
        assert render_atom(atom("x1 x2", "y1 y2", "1/4")) == "excl[1/4](x1 x2 ; y1 y2)"

    def test_human_form(self):
        assert render_human(atom("x", "y")) == "x | y"
        assert render_human(atom("x1 x2", "y1 y2", "1/4")) == "x1 x2 |[1/4]| y1 y2"


IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
DEGREES = st.fractions(min_value=0, max_value=1, max_denominator=100)


@st.composite
def atoms(draw):
    arity = draw(st.integers(min_value=1, max_value=6))
    left = tuple(draw(IDENTIFIERS) for _ in range(arity))
    right = tuple(draw(IDENTIFIERS) for _ in range(arity))
    return Atom(left, right, draw(DEGREES))


class TestRoundTrip:
    @given(atoms())
    @settings(max_examples=300, deadline=None)
    def test_parse_inverts_render(self, a):
        assert parse_atom(render_atom(a)) == a


class TestParseSigma:
    def test_lines_comments_blanks(self):
        text = """
# premises
excl(x ; y)

excl[1/3](u v ; x y)  # inline note
"""
        sigma = parse_sigma(text)
        assert sigma == [atom("x", "y"), atom("u v", "x y", "1/3")]

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_sigma("excl(x ; y)\nexcl(broken\n", source="sigma.txt")
        assert "sigma.txt" in str(info.value)
        assert "2" in str(info.value)

    def test_empty_file_is_empty_sigma(self):
        assert parse_sigma("") == []
        assert parse_sigma("# only a comment\n") == []


class TestTeamCsv:
    def test_parse_basic(self):
        team, duplicates = parse_team_csv("x,y\n0,0\n1,2\n")
        assert team == team_from_rows(("x", "y"), [("0", "0"), ("1", "2")])
        assert duplicates == 0

    def test_duplicates_counted(self):
        team, duplicates = parse_team_csv("x\n0\n0\n1\n")
        assert team.size == 2
        assert duplicates == 1

    def test_empty_team(self):
        team, duplicates = parse_team_csv("x,y\n")
        assert team.is_empty()
        assert duplicates == 0

    def test_cells_are_raw(self):
        team, _ = parse_team_csv("x,y\n a , b \n")
        rows = next(iter(team.rows))
        # data cells keep their whitespace; only the header is stripped
        assert rows == (" a ", " b ")

    def test_header_must_be_identifiers(self):
        with pytest.raises(ParseError):
            parse_team_csv("x,1bad\n")

    def test_header_must_be_distinct(self):
        with pytest.raises(ParseError):
            parse_team_csv("x,x\n0,1\n")

    def test_width_mismatch_reports_line(self):
        with pytest.raises(ParseError) as info:
            parse_team_csv("x,y\n0\n", source="team.csv")
        assert "team.csv" in str(info.value)

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_team_csv("")

    def test_round_trip(self):
        team = team_from_rows(("x", "y"), [("10", "2"), ("9", "1"), ("a", "b")])
        again, duplicates = parse_team_csv(team_csv_text(team))
        assert again == team
        assert duplicates == 0

    def test_text_is_naturally_sorted(self):
        team = team_from_rows(("x",), [("10",), ("9",), ("2",)])
        assert team_csv_text(team) == "x\n2\n9\n10\n"

    def test_unwritable_cells_rejected(self):
        team = team_from_rows(("x",), [("a,b",)])
        with pytest.raises(ValueError):
            team_csv_text(team)


VALUES = st.text(
    alphabet=st.characters(blacklist_characters=",\r\n", min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=4,
)


class TestCsvRoundTripProperty:
    @given(
        st.lists(
            st.tuples(VALUES, VALUES),
            min_size=0,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_write_read_round_trip(self, rows):
        team = team_from_rows(("u", "v"), rows)
        again, duplicates = parse_team_csv(team_csv_text(team))
        assert again == team
        assert duplicates == 0
