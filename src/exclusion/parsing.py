"""Concrete syntax: atom expressions, assumption files, team CSV.

Atom grammar, with the degree defaulting to 0 when omitted:

    atom     := "excl" degree? "(" varlist ";" varlist ")"
    degree   := "[" rational "]"
    rational := INT "/" INT | INT | DECIMAL
    varlist  := IDENT (WS IDENT)*

`;` separates the sides so atom strings survive unquoted in shells; the
human-readable rendering still uses the bar notation `x1 x2 |[1/4]| y1 y2`.

Assumption files hold one atom per line; `#` starts a comment and blank
lines are ignored.

Team CSV: first row names the variables, each later row is one
assignment.  Cells are raw strings without quoting, so values may not
contain commas or newlines.  Duplicate rows collapse; readers report how
many were dropped.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NoReturn

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

# a whole well-formed atom: both sides ASCII identifier lists, one ';' between them
_NAMES = r"[A-Za-z_][A-Za-z0-9_]*(?:\s+[A-Za-z_][A-Za-z0-9_]*)*"
_STRICT_ATOM = re.compile(
    rf"""\s* excl
        \s* (?: \[ (?P<degree> [^\]]*) \] )?
        \s* \( \s* (?P<left> {_NAMES}) \s* ; \s* (?P<right> {_NAMES}) \s* \) \s* \Z""",
    re.VERBOSE,
)

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


def _diagnose(text: str) -> NoReturn:
    """Raise the ParseError naming the first fault of a malformed atom, in
    grammar order: outline, degree spelling, ';', names, arities, range."""
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
        Atom(*sides, degree)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc
    raise AssertionError(f"the strict atom pattern refused a well-formed atom: {text!r}")


def parse_atom(text: str) -> Atom:
    """Parse one atom expression.

    One strict match of the whole text replaces `Atom`'s side checks: each
    side is a nonempty list of ASCII identifiers.  The per-spelling degree
    cache replaces its degree check, so only the arities are compared here.
    Any other text goes to `_diagnose`, which raises and never returns.
    """
    m = _STRICT_ATOM.match(text)
    if m is not None:
        left, right = m.group("left").split(), m.group("right").split()
        if len(left) == len(right):
            try:
                degree = _degree(m.group("degree"))
            except (ParseError, ValueError):
                pass  # _diagnose reports it after any earlier fault
            else:
                return Atom._unchecked(tuple(left), tuple(right), degree)
    _diagnose(text)


def render_atom(atom: Atom) -> str:
    """Machine form; parses back to an equal atom."""
    degree = "" if atom.degree == ZERO else f"[{atom.degree}]"
    return f"excl{degree}({' '.join(atom.left)} ; {' '.join(atom.right)})"


def render_human(atom: Atom) -> str:
    """Bar notation for reports: `x1 x2 |[1/4]| y1 y2`."""
    return str(atom)


def parse_sigma(text: str, source: str = "<sigma>") -> list[Atom]:
    """Assumption list from text: one atom per line, # comments.

    Lines end at ``\r\n``, ``\r`` or ``\n`` only, the universal newlines;
    a form feed, U+0085 or U+2028 inside a line is whitespace, so it never
    turns a comment's tail into an atom or shifts a reported line number.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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


def read_sigma_file(path: str | Path) -> list[Atom]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_sigma(text, source=str(path))


def parse_team_csv(text: str, source: str = "<team>") -> tuple[Team, int]:
    """Team plus the number of duplicate rows that were collapsed."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{source}: empty file, header row required")
    header = [cell.strip() for cell in lines[0].rstrip("\r").split(",")]
    for name in header:
        if IDENT.match(name) is None:
            raise ParseError(f"{source}: bad variable name {name!r} in header")
    if len(set(header)) != len(header):
        raise ParseError(f"{source}: duplicate variable names in header")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        cells = raw.rstrip("\r").split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"{source}:{lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        rows.append(tuple(cells))
    team = Team._unchecked(tuple(header), frozenset(rows))
    return team, len(rows) - team.size


def read_team_csv(path: str | Path) -> tuple[Team, int]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_team_csv(text, source=str(path))


def _row_sort_key(row: tuple[str, ...]):
    return tuple((0, int(cell)) if cell.isdigit() else (1, cell) for cell in row)


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
