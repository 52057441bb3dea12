"""Implication solver for approximate exclusion dependencies over teams.

Decide whether a set of assumptions entails a goal atom, produce checkable
certificates either way (a derivation in an eight-rule calculus, with one
rule of this package where no route in it is found, or a concrete
separating team), and evaluate atoms directly against tables.

The package exports the names of its documented workflow, each imported
from its module on first use (PEP 562), so `import exclusion` loads no
submodule.  Every other helper is imported from its module
(exclusion.calculus, .certificate, .counterexample, .decision, .errors,
.kernel, .model, .oracle, .parsing, .semantics, .sweep).  Only .kernel and
.sweep, the packed-team kernel of the acceptance gate, need numpy; the
rest, the `excl` command line included, needs only the standard library.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package root exports from it
_EXPORTS = {
    "calculus": ("synthesize",),
    "certificate": ("check_derivation",),
    "counterexample": ("verified_counterexample",),
    "decision": ("Verdict", "decide", "implies"),
    "errors": (
        "CapacityError", "EmptyTeamError", "ExclusionError", "InternalVerificationError",
        "ParseError", "UndecidedError", "UnknownVariableError",
        "UnsupportedDegreeError",
    ),
    "model": ("Atom", "Team", "atom"),
    "oracle": ("oracle_implies",),
    "parsing": ("parse_atom", "parse_team_csv"),
    "semantics": ("min_degree", "min_removal", "satisfies"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # relative, so that a tree imported under another name loads its own modules
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
