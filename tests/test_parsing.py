"""Atom grammar, assumption files, and team CSV round trips."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusion import Atom, ParseError, atom, parse_atom, parse_team_csv
from exclusion.model import ZERO, Team, team_from_rows
from exclusion.parsing import (
    IDENT,
    parse_rational,
    parse_sigma,
    read_team_csv,
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

    def test_first_bad_identifier_is_reported(self):
        with pytest.raises(ParseError, match="bad identifier '1b' on left side"):
            parse_atom("excl(a 1b c ; d e f)")
        with pytest.raises(ParseError, match="bad identifier 'e-' on right side"):
            parse_atom("excl(a b c ; d e- 2f)")

    def test_non_ascii_identifier_rejected(self):
        for text in ("excl(a b\u00e9 ; c d)", "excl(x ; \u0443)", "excl(x ; y\u0660)"):
            with pytest.raises(ParseError, match="bad identifier"):
                parse_atom(text)

    def test_arity_mismatch_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_atom("excl(x1 x2 ; y1)")


# The parser as it was before the strict whole-atom match: the reference
# the property below holds parse_atom to, message for message.
_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_REF_SIDE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?: [A-Za-z_][A-Za-z0-9_]*)*\Z")
_REF_ATOM = re.compile(
    r"""\s* excl
        \s* (?: \[ (?P<degree> [^\]]*) \] )?
        \s* \( (?P<body> [^()]*) \) \s* \Z""",
    re.VERBOSE,
)


def _reference_varlist(text, side):
    names = text.split()
    if not names:
        raise ParseError(f"empty {side} side")
    if _REF_SIDE.match(" ".join(names)) is None:
        bad = next(name for name in names if _REF_IDENT.match(name) is None)
        raise ParseError(f"bad identifier {bad!r} on {side} side")
    return tuple(names)


def reference_parse_atom(text):
    m = _REF_ATOM.match(text)
    if m is None:
        raise ParseError(f"malformed atom: {text!r}")
    degree = ZERO
    if m.group("degree") is not None:
        degree = parse_rational(m.group("degree"))
    body = m.group("body")
    if body.count(";") != 1:
        raise ParseError(f"atom needs exactly one ';' between its sides: {text!r}")
    left_text, right_text = body.split(";")
    left = _reference_varlist(left_text, "left")
    right = _reference_varlist(right_text, "right")
    try:
        return Atom(left, right, degree)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def outcome(parse, text):
    try:
        return "atom", parse(text)
    except ParseError as exc:
        return "error", str(exc)


SPACES = st.sampled_from([" ", "  ", "\t", "\x1c", "\u00a0"])
PADDING = st.sampled_from(["", " ", "\x1c", "\u00a0"])
VALID_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
# a leading digit, non-ASCII letters and digits, punctuation
ODD_NAMES = st.sampled_from(["1a", "9", "b\u00e9", "\u0443", "y\u0660", "e-", "x.y"])
# well-formed spellings repeated, so that most drawn atoms parse
DEGREE_TEXTS = st.sampled_from(
    [None] * 4 + ["1/4", "0.25", " 1 / 4 ", "1/3", "0", "1"] * 2
    + ["3/2", "1/0", "x", "", "2"]
)
ARITIES = st.sampled_from([0] + [1, 2, 3, 4, 5, 6] * 2)


@st.composite
def side_texts(draw, arity):
    names = [draw(VALID_NAMES) for _ in range(arity)]
    if names and draw(st.integers(0, 7)) == 0:
        names[draw(st.integers(0, len(names) - 1))] = draw(ODD_NAMES)
    out = draw(PADDING)
    for i, name in enumerate(names):
        out += (draw(SPACES) if i else "") + name
    return out + draw(PADDING)


@st.composite
def atom_texts(draw):
    """Atom texts, mostly well formed, with one fault now and then."""
    left_arity = draw(ARITIES)
    right_arity = left_arity if draw(st.integers(0, 4)) else draw(ARITIES)
    sides = [draw(side_texts(left_arity)), draw(side_texts(right_arity))]
    semicolons = draw(st.sampled_from([1] * 8 + [0, 2]))
    if semicolons == 0:
        body = draw(SPACES).join(sides)
    elif semicolons == 1:
        body = ";".join(sides)
    else:
        body = ";".join(sides + [draw(side_texts(1))])
    degree = draw(DEGREE_TEXTS)
    mark = "" if degree is None else draw(PADDING) + f"[{degree}]"
    suffix = draw(st.sampled_from([""] * 6 + [" ", "\x1c", " junk", ")"]))
    return draw(PADDING) + "excl" + mark + draw(PADDING) + f"({body})" + suffix


# separators of long sides: whitespace other than space and tab, which both
# `str.split` and the pattern's `\s` accept
LONG_SPACES = st.sampled_from(["\x1c", "\x85", "\u2028", "\u00a0", "\x0c"])
TRAILING_SPACES = st.sampled_from(["", " ", "\x85", "\u2028\x0c"])
# a leading digit, non-ASCII letters and digits
ODD_LETTER_NAMES = st.sampled_from(["1a", "9", "b\u00e9", "\u0443", "y\u0660"])


@st.composite
def long_side_texts(draw, arity):
    """A side of `arity` names, sometimes with an odd name among its last
    three, ending in whitespace now and then."""
    names = [draw(VALID_NAMES) for _ in range(arity)]
    if draw(st.booleans()):
        names[-draw(st.integers(1, 3))] = draw(ODD_LETTER_NAMES)
    out = names[0]
    for name in names[1:]:
        out += draw(LONG_SPACES) + name
    return out + draw(TRAILING_SPACES)


@st.composite
def long_atom_texts(draw):
    """Atom texts with sides of 20 to 45 names, where a failed match of a
    backtracking name pattern would retry most."""
    left_arity = draw(st.integers(20, 45))
    right_arity = left_arity if draw(st.integers(0, 4)) else draw(st.integers(20, 45))
    degree = draw(DEGREE_TEXTS)
    mark = "" if degree is None else f"[{degree}]"
    left, right = draw(long_side_texts(left_arity)), draw(long_side_texts(right_arity))
    return f"excl{mark}({left};{right})"


class TestParseAtomEquivalence:
    @given(atom_texts())
    @settings(max_examples=1000, deadline=None)
    def test_same_atom_or_same_error_as_the_reference(self, text):
        assert outcome(parse_atom, text) == outcome(reference_parse_atom, text)

    @given(long_atom_texts())
    @settings(max_examples=300, deadline=None)
    def test_long_sides_match_the_reference(self, text):
        assert outcome(parse_atom, text) == outcome(reference_parse_atom, text)

    @pytest.mark.parametrize(
        "text",
        [
            "excl(a b ; c d)",
            "excl[0.25](a ; b)",
            "excl[ 1 / 4 ](a ; b)",
            "excl[3/2](a b ; c)",
            "excl[x](a b ; c)",
            "excl[1/0](a ; b c)",
            "excl(1a ; b c)",
            "excl(a\x1cb ; c\u00a0d)",
            "excl( ; b)",
            "excl(a ; b ; c)",
            "excl(a b)",
            "\u00a0excl[1/3](a ; b)\x1c",
        ],
    )
    def test_fixed_texts_match_the_reference(self, text):
        assert outcome(parse_atom, text) == outcome(reference_parse_atom, text)

    @pytest.mark.parametrize("text", ["excl(a ; b)", "excl[1](a ; b)", "excl[0.25](a ; b)"])
    def test_degree_is_an_exact_fraction(self, text):
        assert type(parse_atom(text).degree) is Fraction


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


def reference_parse_sigma(text):
    """`parse_sigma` as `parse_atom` on each line, comments and blanks cut."""
    atoms = []
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                atoms.append(parse_atom(line))
            except ParseError as exc:
                raise ParseError(f"<sigma>:{lineno}: {exc}") from exc
    return atoms


COMMENTS = st.sampled_from(["#", "# note", " # excl(a ; b)", "\t#(x ; 1)", "# \x0c\u2028"])
BLANKS = st.sampled_from(["", " ", "\t", "\x0c", "\u00a0"])


@st.composite
def plain_atom_texts(draw):
    """Atom texts spelled with single spaces and no padding, as files are
    written, with degree spellings and arities drawn as in `atom_texts`:
    an empty side or degree, unequal arities or a bad degree now and then."""
    left_arity = draw(ARITIES)
    right_arity = left_arity if draw(st.integers(0, 4)) else draw(ARITIES)
    left = " ".join(draw(VALID_NAMES) for _ in range(left_arity))
    right = " ".join(draw(VALID_NAMES) for _ in range(right_arity))
    degree = draw(DEGREE_TEXTS)
    mark = "" if degree is None else f"[{degree}]"
    return f"excl{mark}({left} ; {right})"


@st.composite
def sigma_lines(draw, atom_lines):
    """A blank line, a comment, or an atom line with a comment now and then."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(BLANKS)
    if kind == 1:
        return draw(COMMENTS)
    text = draw(atom_lines)
    return text + draw(COMMENTS) if kind == 3 else text


@st.composite
def sigma_texts(draw):
    """Files of atom lines, blank lines and comments, each line break one
    of the three; a blank last line stands for a final break.  Half the
    files spell every atom plainly, so that whole files are plain often
    enough; the others mix in `atom_texts`."""
    if draw(st.booleans()):
        atom_lines = plain_atom_texts()
    else:
        atom_lines = st.one_of(atom_texts(), plain_atom_texts())
    parts = [draw(sigma_lines(atom_lines))]
    for _ in range(draw(st.integers(0, 5))):
        parts += [draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(sigma_lines(atom_lines))]
    return "".join(parts)


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

    def test_comment_tail_after_unicode_line_break_stays_a_comment(self):
        # U+0085 ends a line for str.splitlines but not for a text file
        with pytest.raises(ParseError, match=r"^<sigma>:2: malformed atom: 'excl\(a ;'$"):
            parse_sigma("excl(a ; b) # note \x85 more\nexcl(a ;")
        assert parse_sigma("excl(a ; b) # note \u2028 more\n") == [atom("a", "b")]

    def test_form_feed_in_comment_keeps_line_numbers(self):
        for brk in "\x0b\x0c\x1c\x1d\x1e\u2029":
            with pytest.raises(ParseError, match=r"^<sigma>:2: malformed atom: 'excl\(a ;'$"):
                parse_sigma(f"excl(a ; b) # x{brk}\nexcl(a ;")

    def test_universal_newlines(self):
        text = "excl(a ; b)\r\nexcl(b ; c)\rexcl(c ; d)\n\r\nexcl(broken\n"
        with pytest.raises(ParseError, match=r"^<sigma>:5: "):
            parse_sigma(text)
        assert parse_sigma(text.replace("excl(broken", "")) == [
            atom("a", "b"), atom("b", "c"), atom("c", "d")
        ]

    # Files the one-pass reading must hand to the line-by-line one.  Its
    # pattern's groups read '' both when a part is absent and when it is
    # empty, so an empty degree or an empty side must not pass for none.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("excl( ; )", "<sigma>:1: empty left side"),
            ("excl(a ; b)\nexcl( ; )", "<sigma>:2: empty left side"),
            ("excl[](a ; b)", "<sigma>:1: malformed rational: ''"),
            ("excl(a ; 1b)", "<sigma>:1: bad identifier '1b' on right side"),
            ("excl(a b ; c)\n", "<sigma>:1: side arities differ: 2 vs 1"),
            ("# x\nexcl[3/2](a ; b)", "<sigma>:2: degree out of range [0, 1]: 3/2"),
        ],
    )
    def test_faulty_plain_lines_report_their_line(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_sigma(text)
        assert str(info.value) == message

    # tabs and Unicode whitespace between names, blanks in a degree or
    # around an atom, and a comment holding atom syntax
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("excl(a\tb ; c d)", [atom("a b", "c d")]),
            ("excl(a\u2028b ; c d)", [atom("a b", "c d")]),
            ("excl[ 1 / 4 ](a ; b)", [atom("a", "b", "1/4")]),
            (" excl(a ; b) # (x ; 1)", [atom("a", "b")]),
            ("excl(a ; b)\n\x0cexcl (c ; d)\n", [atom("a", "b"), atom("c", "d")]),
        ],
    )
    def test_other_spellings_parse(self, text, expected):
        assert parse_sigma(text) == expected

    @given(sigma_texts())
    @settings(max_examples=500, deadline=None)
    def test_same_atoms_or_same_error_as_line_by_line(self, text):
        assert outcome(parse_sigma, text) == outcome(reference_parse_sigma, text)


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

    def test_carriage_returns_end_lines(self):
        # a lone "\r" ends a line as "\n" and "\r\n" do, as in parse_sigma
        team, duplicates = parse_team_csv("a,b\r1,2\r")
        assert team == team_from_rows(("a", "b"), [("1", "2")])
        assert duplicates == 0
        assert parse_team_csv("a,b\r\n1,2\r\n3,4\n") == parse_team_csv("a,b\n1,2\n3,4\n")

    def test_carriage_return_in_a_row_splits_it(self):
        # "1\r,2" is two lines, never a cell "1\r" that cannot be written back
        with pytest.raises(ParseError, match=r"^<team>:2: expected 2 cells, got 1$"):
            parse_team_csv("a,b\n1\r,2\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_team_csv("")

    def test_round_trip(self):
        team = team_from_rows(("x", "y"), [("10", "2"), ("9", "1"), ("a", "b")])
        again, duplicates = parse_team_csv(team_csv_text(team))
        assert again == team
        assert duplicates == 0

    def test_non_decimal_digits_sort_as_text(self):
        # "²" is a digit to str.isdigit but not a decimal int() can read
        team, _ = parse_team_csv("x,y\n²,1\n3,4\n")
        assert team_csv_text(team) == "x,y\n3,4\n²,1\n"
        assert parse_team_csv(team_csv_text(team))[0] == team

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


class TestCsvTeamUnchecked:
    """parse_team_csv builds its team without Team's own validation; the
    parser's checks must leave nothing for that validation to catch."""

    @given(
        st.lists(st.sampled_from(["x", "y", "z_1", "Q"]), min_size=1, max_size=4, unique=True),
        st.data(),
        st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_validated_team(self, schema, data, newline):
        cells = st.text(
            alphabet=st.characters(blacklist_characters=",\r\n", max_codepoint=300),
            max_size=3,
        )
        rows = data.draw(st.lists(st.tuples(*[cells] * len(schema)), max_size=6))
        lines = [" , ".join(schema)] + [",".join(row) for row in rows]
        team, duplicates = parse_team_csv(newline.join(lines) + newline)
        expected = team_from_rows(schema, rows)
        assert team == expected
        assert hash(team) == hash(expected)
        assert type(team.schema) is tuple and type(team.rows) is frozenset
        assert duplicates == len(rows) - expected.size

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "<team>: empty file, header row required"),
            ("\n", "<team>: bad variable name '' in header"),
            ("x,1bad\n", "<team>: bad variable name '1bad' in header"),
            ("x,\n", "<team>: bad variable name '' in header"),
            ("x,x\n0,1\n", "<team>: duplicate variable names in header"),
            ("x,y\n0,1\n1,2,3\n", "<team>:3: expected 2 cells, got 3"),
            ("x,y\r\n0,1\r\n\r\n", "<team>:3: expected 2 cells, got 1"),
            ("x , y\n0,1,\n", "<team>:2: expected 2 cells, got 3"),
            # a duplicate line still counts toward the number of a later one
            ("x,y\n0,1\n0,1\n1,2,3\n", "<team>:4: expected 2 cells, got 3"),
            ("x,y\n0,1\n1,2\n2,3\n3,4\n4,5\n5,6\n6\n", "<team>:8: expected 2 cells, got 1"),
            # one cell too many and one too few: the total number of cells is right
            ("x,y\n0,1\n1,2,3\n4\n", "<team>:3: expected 2 cells, got 3"),
        ],
    )
    def test_malformed_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_team_csv(text)
        assert str(info.value) == message


def reference_parse_team_csv(text, source="<team>"):
    """The row-wise reader the column reader replaced: one split and one
    cell-count check per line, and a frozenset of row tuples."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{source}: empty file, header row required")
    header = [cell.strip() for cell in lines[0].split(",")]
    for name in header:
        if IDENT.match(name) is None:
            raise ParseError(f"{source}: bad variable name {name!r} in header")
    if len(set(header)) != len(header):
        raise ParseError(f"{source}: duplicate variable names in header")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        cells = raw.split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"{source}:{lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        rows.append(tuple(cells))
    team = Team._unchecked(tuple(header), frozenset(rows))
    return team, len(rows) - team.size


def parsed(parse, text):
    """The team, its hash and the duplicate count, or the ParseError message."""
    try:
        team, duplicates = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return team, hash(team), duplicates


# empty cells, cells the header's stripping would change, and a few values
# so that drawn rows repeat
TABLE_CELLS = st.sampled_from(["", "0", "1", "2", " a", "b ", "\u00e9"])


@st.composite
def table_texts(draw):
    """CSV text of one to three columns: rows that repeat, empty cells (a
    width-1 row of one empty cell is a blank line), now and then one or
    two lines of the wrong width, any of the three line ends, a final line end or none,
    and now and then a byte order mark, which no header name can start with."""
    width = draw(st.integers(1, 3))
    lines = [",".join(f"v{i}" for i in range(width))]
    for _ in range(draw(st.integers(0, 8))):
        if lines[1:] and draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(lines[1:])))  # a duplicate line
        else:
            lines.append(",".join(draw(st.tuples(*[TABLE_CELLS] * width))))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # lines of other widths
        bad = ",".join(draw(st.lists(TABLE_CELLS, min_size=1, max_size=4)))
        lines.insert(draw(st.integers(1, len(lines))), bad)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "", "\ufeff"])) + text


class TestColumnReader:
    """The column reader gives the row-wise reader's team, hash, duplicate
    count and messages."""

    @given(table_texts())
    @settings(max_examples=1000, deadline=None)
    def test_matches_row_wise_reader(self, text):
        assert parsed(parse_team_csv, text) == parsed(reference_parse_team_csv, text)

    @pytest.mark.parametrize(
        "text, schema, rows, duplicates",
        [
            ("x\n\n", "x", [("",)], 0),  # one row holding ""
            ("x\n\n\n\n", "x", [("",)], 2),
            ("x,y\n,\n,1\n,\n", "xy", [("", ""), ("", "1")], 1),
            ("x,y\r\n1,2\r\n1,2\r3,4\n", "xy", [("1", "2"), ("3", "4")], 1),
            ("x\n", "x", [], 0),
        ],
    )
    def test_examples(self, text, schema, rows, duplicates):
        team = team_from_rows(schema, rows)
        assert parsed(parse_team_csv, text) == (team, hash(team), duplicates)
        assert parsed(reference_parse_team_csv, text) == (team, hash(team), duplicates)

    def test_file_reader_gives_columns(self, tmp_path):
        # the byte order mark is dropped when the file is read
        path = tmp_path / "team.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\r\n1,2\r\n3,\r\n1,2\r\n")
        schema, columns, duplicates = read_team_csv(path)
        assert schema == ("x", "y")
        assert [list(column) for column in columns] == [["1", "3"], ["2", ""]]
        assert duplicates == 1

    def test_file_reader_on_an_empty_body(self, tmp_path):
        path = tmp_path / "team.csv"
        path.write_text("x,y,z\n")
        schema, columns, duplicates = read_team_csv(path)
        assert schema == ("x", "y", "z")
        assert [list(column) for column in columns] == [[], [], []]
        assert duplicates == 0
