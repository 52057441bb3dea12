"""Exception hierarchy for the exclusion solver.

Each error class maps to one CLI exit code, so library failures surface as
stable process statuses.  Anything not derived from ExclusionError escaping
the CLI is a bug and exits with INTERNAL_ERROR.
"""

from __future__ import annotations

# CLI exit codes
EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED_DEGREE = 3
EXIT_WRONG_DIRECTION = 4
EXIT_CAPACITY = 5
EXIT_UNDECIDED = 6


class ExclusionError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_INTERNAL


class ParseError(ExclusionError):
    """Malformed atom, sigma file, team CSV, or certificate."""

    exit_code = EXIT_PARSE


class UnknownVariableError(ExclusionError):
    """An atom mentions a variable the team's schema does not supply."""

    exit_code = EXIT_PARSE


class EmptyTeamError(ExclusionError):
    """An operation that needs a nonempty team was given an empty one."""

    exit_code = EXIT_PARSE


class UnsupportedDegreeError(ExclusionError):
    """Goal degree lies in [1/2, 1), outside the decidable range."""

    exit_code = EXIT_UNSUPPORTED_DEGREE


DEFAULT_BUDGET = 10_000_000  # teams an enumeration visits before CapacityError


class CapacityError(ExclusionError):
    """A configured enumeration budget would be exceeded."""

    exit_code = EXIT_CAPACITY


class InternalVerificationError(ExclusionError):
    """A self-check failed: a synthesized certificate did not verify."""

    exit_code = EXIT_INTERNAL


class UndecidedError(InternalVerificationError):
    """A NO whose planned team fails its check: no verified counterexample
    backs it, so the implication is left undecided."""

    exit_code = EXIT_UNDECIDED
