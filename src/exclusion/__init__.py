"""Implication solver for approximate exclusion dependencies over teams.

Decide whether a set of assumptions entails a goal atom, produce checkable
certificates either way (a derivation in an eight-rule calculus, with one
rule of this package where no route in it is found, or a concrete
separating team), and evaluate atoms directly against tables.

The package exports the names of its documented workflow; every other
helper is imported from its module (exclusion.calculus, .certificate,
.counterexample, .decision, .errors, .kernel, .model, .oracle, .parsing,
.semantics, .sweep).
"""

from .calculus import synthesize
from .certificate import check_derivation
from .counterexample import verified_counterexample
from .decision import Verdict, decide, implies
from .errors import (
    CapacityError,
    EmptyTeamError,
    ExclusionError,
    InternalVerificationError,
    ParseError,
    UnknownVariableError,
    UnsupportedDegreeError,
)
from .model import Atom, Team, atom
from .oracle import oracle_implies
from .parsing import parse_atom, parse_team_csv
from .semantics import min_degree, min_removal, satisfies

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CapacityError",
    "EmptyTeamError",
    "ExclusionError",
    "InternalVerificationError",
    "ParseError",
    "Team",
    "UnknownVariableError",
    "UnsupportedDegreeError",
    "Verdict",
    "atom",
    "check_derivation",
    "decide",
    "implies",
    "min_degree",
    "min_removal",
    "oracle_implies",
    "parse_atom",
    "parse_team_csv",
    "satisfies",
    "synthesize",
    "verified_counterexample",
]
