"""Concrete syntax: atom expressions, assumption files, team CSV.

Atom grammar, with the degree defaulting to 0 when omitted:

    atom     := "excl" degree? "(" varlist ";" varlist ")"
    degree   := "[" rational "]"
    rational := INT "/" INT | INT | DECIMAL
    varlist  := IDENT (WS IDENT)*

`;` separates the sides so atom strings survive unquoted in shells;
`str(atom)` still uses the bar notation `x1 x2 |[1/4]| y1 y2`.

Assumption files hold one atom per line; `#` starts a comment and blank
lines are ignored.

Atoms have two readers.  The plain reader, `_plain_sigma`, reads a text
whose lines are all spelled plainly (no blanks around `excl` or its
brackets, names separated by spaces) in one pass of one pattern over the
whole text; `parse_sigma` reads a file with it, and `parse_atom` a
one-line text without a comment.  The pattern matches a side as one flat
run of identifier characters and spaces, so it also takes a digit-led
name after the first; one search for a blank followed by a digit in the
side groups hands such a text on.  Any other text goes to the diagnosing
reader, `_diagnose`, which reads an atom part by part, line by line in a
file: it parses every well-formed atom and names the first fault of any
other, so it alone defines the accepted language and the messages.

Team CSV: first row names the variables, each later row is one
assignment.  Cells are raw strings without quoting, so values may not
contain commas or newlines.  The table is read column-wise: body cells
are not stripped, so a line and its row determine each other, and
duplicate rows collapse as duplicate lines before any cell is split; the
distinct lines are joined and split once, and each column is a slice of
that one list of cells.  `read_team_csv`, the reader of `excl eval`,
returns the columns without building a `Team`; `parse_team_csv` builds
the team from the same columns.  Both report how many rows were dropped.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from pathlib import Path

from .errors import ParseError
from .model import Atom, Team, ZERO, as_degree

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# the outline of an atom, whose parts `_diagnose` checks one by one
_ATOM = re.compile(
    r"""\s* excl
        \s* (?: \[ (?P<degree> [^\]]*) \] )?
        \s* \( (?P<body> [^()]*) \) \s* \Z""",
    re.VERBOSE,
)

# the plain spelling of an atom: ASCII identifier lists separated by spaces,
# a degree of digits, '/', '.' and spaces, no blanks around `excl` or the
# brackets.  A name list is one flat class, a letter or '_' and then
# identifier characters and spaces, which the matcher runs in one loop
# instead of re-entering a group for every name.  A run of it is an
# identifier list exactly when no space in it is followed by a digit, so
# `_plain_sigma` hands a text whose side groups hold one (`_DIGIT_LED`,
# as in `a 1b`) to the line-by-line reader, and the accepted language
# and every message stay those of `_diagnose`.  The quantifiers are
# possessive, so a failed match never backtracks into a name list; a
# backtracking pattern would match the same texts, since a list is
# followed only by ` *;` or ` *\)`, and a tail a list could give back is,
# after its spaces, an identifier character, which neither can match, or
# the character the possessive match already failed on.  `re` accepts
# possessive quantifiers from Python 3.11 on, hence requires-python.
_NAMES = r"[A-Za-z_][A-Za-z0-9_ ]*+"
_PLAIN = rf"excl(?:\[([0-9/. ]++)\])?\([ ]*+({_NAMES})[ ]*+;[ ]*+({_NAMES})[ ]*+\)"
# one line of an assumption file spelled plainly: blank, a comment, or a
# plain atom with blanks or tabs around it and an optional comment after;
# no class in it holds a newline, so each line gives at most one match
_PLAIN_LINE = re.compile(rf"^[ \t]*+(?:{_PLAIN}[ \t]*+)?(?:#[^\n]*+)?$", re.MULTILINE)
# the start of a digit-led name after another in a side group
_DIGIT_LED = re.compile(r" [0-9]")

_RATIONAL = re.compile(
    r"\s*(?: (?P<num>\d+) \s* / \s* (?P<den>\d+) | (?P<dec>\d+\.\d+) | (?P<int>\d+) )\s*\Z",
    re.VERBOSE,
)


def parse_rational(text: str) -> Fraction:
    """An exact rational from INT/INT, INT, or DECIMAL notation."""
    m = _RATIONAL.match(text)
    if m is None:
        raise ParseError(f"malformed rational: {text!r}")
    if m.group("num") is not None:
        den = int(m.group("den"))
        if den == 0:
            raise ParseError(f"zero denominator: {text!r}")
        return Fraction(int(m.group("num")), den)
    if m.group("dec") is not None:
        return Fraction(m.group("dec"))
    return Fraction(int(m.group("int")))


@lru_cache(maxsize=256)
def _degree(text: str | None) -> Fraction:
    """The range-checked degree a spelling (None: omitted) denotes, one
    Fraction per spelling; errors (ParseError, ValueError) are not cached."""
    return ZERO if text is None else as_degree(parse_rational(text))


def _diagnose(text: str) -> Atom:
    """The atom any text denotes, read part by part, or the ParseError
    naming its first fault, in grammar order: outline, degree spelling,
    ';', names, arities, range.  This is the parser of every atom that
    `_plain_sigma` does not read: tabs or other Unicode whitespace between
    names, blanks inside or around `excl[...]`, and whitespace other than
    blanks and tabs around the atom."""
    m = _ATOM.match(text)
    if m is None:
        raise ParseError(f"malformed atom: {text!r}")
    degree = ZERO if m.group("degree") is None else parse_rational(m.group("degree"))
    body = m.group("body")
    if body.count(";") != 1:
        raise ParseError(f"atom needs exactly one ';' between its sides: {text!r}")
    sides = []
    for side, part in zip(("left", "right"), body.split(";")):
        names = tuple(part.split())
        if not names:
            raise ParseError(f"empty {side} side")
        for name in names:
            if IDENT.match(name) is None:
                raise ParseError(f"bad identifier {name!r} on {side} side")
        sides.append(names)
    try:
        return Atom(*sides, degree)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def parse_atom(text: str) -> Atom:
    """Parse one atom expression.

    A one-line text is read by `_plain_sigma` first.  A text holding a `#`
    is not, since the plain reader takes it for a comment, nor one holding a
    newline, which would make it several lines.  Any other text, and one
    the plain reader refuses or finds no atom in, goes to `_diagnose`, so
    the accepted language and every message are its.
    """
    if "#" not in text and "\n" not in text:
        atoms = _plain_sigma(text)
        if atoms:
            return atoms[0]
    return _diagnose(text)


def parse_sigma(text: str, source: str = "<sigma>") -> list[Atom]:
    """Assumption list from text: one atom per line, # comments.

    Lines end at ``\r\n``, ``\r`` or ``\n`` only, the universal newlines;
    a form feed, U+0085 or U+2028 inside a line is whitespace, so it never
    turns a comment's tail into an atom or shifts a reported line number.

    A file whose every line is spelled plainly (`_PLAIN_LINE`) is read in
    one pattern pass over the whole text.  Any other file, and a plain one
    with an atom whose arities or degree fail, is read line by line with
    `parse_atom`, which reports the first bad line by number.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    atoms = _plain_sigma(text)
    if atoms is not None:
        return atoms
    atoms = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            atoms.append(parse_atom(line))
        except ParseError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from exc
    return atoms


def _plain_sigma(text: str) -> list[Atom] | None:
    """The atoms of a text whose lines are all plain, or None.

    Each line gives at most one `_PLAIN_LINE` match, so one match per line
    means every line is plain.  A line without an atom leaves its groups
    empty; a present degree or side is never empty, since each group needs
    a character, so an empty group is an absent part, never an empty one.
    A blank followed by a digit in a side group starts a digit-led name,
    which only the line-by-line reader reports; a present side group starts
    with a letter or '_', so joining the groups makes no such pair.
    """
    found = _PLAIN_LINE.findall(text)
    if len(found) != text.count("\n") + 1:
        return None
    _, lefts, rights = zip(*found)
    if _DIGIT_LED.search("".join(lefts + rights)):
        return None
    atoms = []
    append, unchecked = atoms.append, Atom._unchecked
    try:
        for spelling, left, right in found:
            if left:
                left, right = left.split(), right.split()
                if len(left) != len(right):
                    return None
                append(unchecked(tuple(left), tuple(right), _degree(spelling or None)))
    except (ParseError, ValueError):
        return None
    return atoms


def _read_text(path: str | Path) -> tuple[str, str]:
    """A UTF-8 file's text, a leading BOM dropped, and its path as messages
    name it; a file that cannot be read or decoded is a ParseError."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8-sig"), str(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_sigma_file(path: str | Path) -> list[Atom]:
    return parse_sigma(*_read_text(path))


def _team_columns(text: str, source: str) -> tuple[tuple[str, ...], list[list[str]], int]:
    """The schema, one list of cells per column over the distinct rows, and
    the number of duplicate rows that were collapsed.

    Lines end at ``\r\n``, ``\r`` or ``\n``, as in `parse_sigma`.  Body
    cells are not stripped, so a line and its cell tuple determine each
    other, and duplicate rows collapse as duplicate lines, first one first.
    Every distinct line's comma count is checked in one pass; on a mismatch
    the lines are walked in order to name the first bad one.  The columns
    are slices of one split of the distinct lines joined by commas.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{source}: empty file, header row required")
    header = tuple(cell.strip() for cell in lines[0].split(","))
    for name in header:
        if IDENT.match(name) is None:
            raise ParseError(f"{source}: bad variable name {name!r} in header")
    if len(set(header)) != len(header):
        raise ParseError(f"{source}: duplicate variable names in header")
    width = len(header)
    unique = dict.fromkeys(islice(lines, 1, None))
    if not {width - 1}.issuperset(map(str.count, unique, repeat(","))):
        for lineno, raw in enumerate(lines[1:], start=2):
            found = raw.count(",") + 1
            if found != width:
                raise ParseError(f"{source}:{lineno}: expected {width} cells, got {found}")
    cells = ",".join(unique).split(",") if unique else []
    columns = [cells[c::width] for c in range(width)]
    return header, columns, len(lines) - 1 - len(unique)


def parse_team_csv(text: str, source: str = "<team>") -> tuple[Team, int]:
    """Team plus the number of duplicate rows that were collapsed."""
    schema, columns, duplicates = _team_columns(text, source)
    return Team._unchecked(schema, frozenset(zip(*columns))), duplicates


def read_team_csv(path: str | Path) -> tuple[tuple[str, ...], list[list[str]], int]:
    """The schema, columns and duplicate count of a team CSV file, as
    `_team_columns` reads them; no `Team` is built."""
    return _team_columns(*_read_text(path))


def _row_sort_key(row: tuple[str, ...]):
    return tuple((0, int(cell)) if cell.isdecimal() else (1, cell) for cell in row)


def team_csv_text(team: Team) -> str:
    """CSV for a team: header, then rows in natural order.

    Cells holding a comma, newline, or carriage return have no
    representation in this format and are rejected.
    """
    for row in team.rows:
        for cell in row:
            if any(ch in cell for ch in ",\n\r"):
                raise ValueError(f"cell {cell!r} cannot be written as raw CSV")
    lines = [",".join(team.schema)]
    for row in sorted(team.rows, key=_row_sort_key):
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Write a certificate file; an unwritable path is a ParseError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def write_team_csv(team: Team, path: str | Path) -> None:
    write_text(path, team_csv_text(team))
