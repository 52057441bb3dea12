"""Derivation certificates: the rules, their checker and the JSON codec.

Primitive rules:

  A1  x |_p x  derives  y |_0 z           (p < 1: a contradictory premise)
  A2  x |_p y  derives  y |_p x
  A3  x |_p y  derives  xu |_p yv         (append, |u| = |v|)
  A4  xuu |_p yvv  derives  xu |_p yv     (drop a repeated trailing block)
  A5  xyz |_p uvw  derives  xzy |_p uwv   (swap two adjacent blocks)
  A6  xw |_p yw  derives  zz |_p xy       (arity switch; z fresh, |w| shared)
  A7  x |_p y  derives  x |_q y           (q >= p: degree can only rise)
  A8  derives  x |_1 y                    (vacuous at degree 1)

plus HYP (use an assumption) and one structural macro checked on pair sets
directly:

  PAIRS  x |_p y  derives  u |_p v        (u | v has the pair set of x | y)

An atom's meaning depends only on its degree and on its set of position
pairs (x_i, y_i), so the step is sound; it takes no witness.  It is
admissible: one A3 appends u | v, then A5 block swaps and one A4 per
premise position drop the premise's own positions, as the test suite
shows by expanding and re-checking it.

One rule is this package's, not the paper's:

  DOM  x |_q y  derives  u |_p v          (q <= p, x | y conflicts on the
                                           generic pair of u | v)

It is the semantic domination test of the decision procedure, recomputed
by check_step from the two atoms; it carries no witness.

A derivation is a numbered list of steps ending in its goal.  check_step
and check_derivation verify everything.  This module imports only `errors`
and `model`, so a certificate is checked without the planner that wrote it
(`calculus`) or the decision procedure.

Each rule is declared once, in RULES: its premise count, its witness
class and its check.  check_step runs the checks all rules share, then
the rule's own, which compares the conclusion's sides and degree with
the tuples and integers it expects and builds no atom; it returns the
reason the step fails, or None.  Each witness names its JSON kind through
`kind`.  One field codec writes and reads the certificate: atoms,
witnesses, steps and the derivation.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import is_
from typing import Callable, ClassVar, Sequence

from .errors import ParseError
from .model import Atom, VarTuple, as_degree, conflicts, generic_pair

CERTIFICATE_FORMAT = 3


class Rule(str, Enum):
    HYP = "HYP"
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"
    A6 = "A6"
    A7 = "A7"
    A8 = "A8"
    PAIRS = "PAIRS"
    DOM = "DOM"


# ==========================================================================
# witnesses
# ==========================================================================

@dataclass(frozen=True)
class AppendWitness:
    """Tuples appended to the left and right sides by A3."""

    kind: ClassVar[str] = "append"

    left: VarTuple
    right: VarTuple


@dataclass(frozen=True)
class BlockSwapWitness:
    """A5 split: prefix length, then the two swapped block lengths.

    The second block runs to the end of the tuple; blocks may be empty.
    """

    kind: ClassVar[str] = "block-swap"

    prefix: int
    first: int
    second: int


@dataclass(frozen=True)
class SwitchWitness:
    """A6 data: length of the shared trailing block and the fresh tuple."""

    kind: ClassVar[str] = "switch"

    shared: int
    fresh: VarTuple


@dataclass(frozen=True)
class RaiseWitness:
    """A7 target degree."""

    kind: ClassVar[str] = "raise"

    degree: Fraction


Witness = AppendWitness | BlockSwapWitness | SwitchWitness | RaiseWitness | None

@dataclass(frozen=True)
class Step:
    index: int
    rule: Rule
    premises: tuple[int, ...]
    conclusion: Atom
    witness: Witness = None


@dataclass(frozen=True)
class Derivation:
    assumptions: tuple[Atom, ...]
    steps: tuple[Step, ...]

    @property
    def goal(self) -> Atom:
        if not self.steps:
            raise ValueError("empty derivation has no goal")
        return self.steps[-1].conclusion


# ==========================================================================
# step checking
# ==========================================================================

# Each rule's check takes the step's conclusion, its premise's conclusion
# (None for a rule without premises), its witness and the assumptions, and
# returns the reason the step fails, or None.  It compares sides as tuples
# and degrees as integers or by identity first; it builds no atom, so a
# witness holding something that is no variable fails the comparison
# instead of raising.

def _differ(a, b) -> bool:
    return a is not b and a != b


def _check_hyp(concl: Atom, prem, w, assumptions) -> str | None:
    # `in` calls the dataclass `__eq__` on every assumption before a match;
    # a planned derivation's HYP holds the assumption itself, found in C
    if not any(map(is_, assumptions, repeat(concl))) and concl not in assumptions:
        return "HYP conclusion is not an assumption"
    return None


def _check_a1(concl: Atom, prem: Atom, w, assumptions) -> str | None:
    if _differ(prem.left, prem.right):
        return "A1 premise sides must be the same tuple"
    if prem.degree.numerator >= prem.degree.denominator:
        return "A1 premise degree must be below 1"
    if concl.degree.numerator:
        return "A1 conclusion degree must be 0"
    return None


def _check_a2(concl: Atom, prem: Atom, w, assumptions) -> str | None:
    if (
        _differ(concl.left, prem.right)
        or _differ(concl.right, prem.left)
        or _differ(concl.degree, prem.degree)
    ):
        return "A2 conclusion must swap the premise sides"
    return None


def _check_a3(concl: Atom, prem: Atom, w: AppendWitness, assumptions) -> str | None:
    if len(w.left) != len(w.right):
        return "A3 appended tuples must have equal length"
    if (
        concl.left != prem.left + w.left
        or concl.right != prem.right + w.right
        or _differ(concl.degree, prem.degree)
    ):
        return "A3 conclusion must append the witness tuples"
    return None


def _check_a4(concl: Atom, prem: Atom, w, assumptions) -> str | None:
    left, right = concl.left, concl.right
    b = len(prem.left) - len(left)
    if b < 0:
        return "A4 conclusion cannot be longer than its premise"
    if _differ(concl.degree, prem.degree):
        return "A4 preserves the degree"
    if prem.left != left + left[len(left) - b :]:
        return "A4 premise left side must repeat the trailing block"
    if prem.right != right + right[len(right) - b :]:
        return "A4 premise right side must repeat the trailing block"
    return None


def _check_a5(concl: Atom, prem: Atom, w: BlockSwapWitness, assumptions) -> str | None:
    a, b1, b2 = w.prefix, w.first, w.second
    left, right = prem.left, prem.right
    if min(a, b1, b2) < 0 or a + b1 + b2 != len(left):
        return "A5 split must partition the premise sides"
    cut1, cut2 = a + b1, a + b1 + b2
    if (
        concl.left != left[:a] + left[cut1:cut2] + left[a:cut1]
        or concl.right != right[:a] + right[cut1:cut2] + right[a:cut1]
        or _differ(concl.degree, prem.degree)
    ):
        return "A5 conclusion must swap the witnessed blocks"
    return None


def _check_a6(concl: Atom, prem: Atom, w: SwitchWitness, assumptions) -> str | None:
    h = len(w.fresh)
    if h < 1:
        return "A6 fresh tuple must be nonempty"
    if w.shared < 0 or len(prem.left) != h + w.shared:
        return "A6 shared length must complete the premise arity"
    if prem.left[h:] != prem.right[h:]:
        return "A6 premise must end in a shared block"
    if (
        concl.left != w.fresh + w.fresh
        or concl.right != prem.left[:h] + prem.right[:h]
        or _differ(concl.degree, prem.degree)
    ):
        return "A6 conclusion must be fresh-fresh over the moved sides"
    return None


def _check_a7(concl: Atom, prem: Atom, w: RaiseWitness, assumptions) -> str | None:
    p, q = prem.degree, concl.degree
    if _differ(w.degree, q):
        return "A7 witness degree must match the conclusion"
    if q.numerator * p.denominator < p.numerator * q.denominator:
        return "A7 can only raise the degree"
    if _differ(concl.left, prem.left) or _differ(concl.right, prem.right):
        return "A7 preserves the sides"
    return None


def _check_a8(concl: Atom, prem, w, assumptions) -> str | None:
    if concl.degree.numerator != concl.degree.denominator:
        return "A8 conclusion degree must be 1"
    return None


def _check_pairs(concl: Atom, prem: Atom, w, assumptions) -> str | None:
    if _differ(concl.degree, prem.degree):
        return "PAIRS preserves the degree"
    if set(zip(concl.left, concl.right)) != set(zip(prem.left, prem.right)):
        return "PAIRS conclusion must have the premise's pair set"
    return None


def _check_dom(concl: Atom, prem: Atom, w, assumptions) -> str | None:
    q, p = prem.degree, concl.degree
    if q.numerator * p.denominator > p.numerator * q.denominator:
        return "DOM cannot lower the degree"
    if not conflicts(prem, generic_pair(concl)):
        return "DOM premise must conflict on the conclusion's generic pair"
    return None


# per rule: its premise count, its witness class (None for no witness) and
# its check
RULES: dict[Rule, tuple[int, type | None, Callable[..., str | None]]] = {
    Rule.HYP: (0, None, _check_hyp),
    Rule.A1: (1, None, _check_a1),
    Rule.A2: (1, None, _check_a2),
    Rule.A3: (1, AppendWitness, _check_a3),
    Rule.A4: (1, None, _check_a4),
    Rule.A5: (1, BlockSwapWitness, _check_a5),
    Rule.A6: (1, SwitchWitness, _check_a6),
    Rule.A7: (1, RaiseWitness, _check_a7),
    Rule.A8: (0, None, _check_a8),
    Rule.PAIRS: (1, None, _check_pairs),
    Rule.DOM: (1, None, _check_dom),
}
WITNESS_KINDS = {cls.kind: cls for _, cls, _ in RULES.values() if cls is not None}


def check_step(
    step: Step, assumptions: Sequence[Atom], prior: Sequence[Atom]
) -> str | None:
    """The reason one step fails against the assumptions and earlier
    conclusions, or None when it holds.

    prior[i] must be the conclusion of step i + 1.  The checks every rule
    shares come first: premise count, premise references, witness class;
    then the rule's own check from RULES.
    """
    signature = RULES.get(step.rule)
    if signature is None:
        return f"unknown rule {step.rule!r}"
    expected, witness_class, check = signature
    premises = step.premises
    if len(premises) != expected:
        return f"{step.rule.value} takes {expected} premise(s)"
    for ref in premises:
        if not 1 <= ref < step.index:
            return f"premise reference {ref} is not an earlier step"
        if ref > len(prior):
            return f"premise reference {ref} has no recorded conclusion"
    w = step.witness
    if witness_class is None:
        if w is not None:
            return f"{step.rule.value} takes no witness"
    elif not isinstance(w, witness_class):
        return f"{step.rule.value} needs a {witness_class.kind} witness"
    prem = prior[premises[0] - 1] if premises else None
    return check(step.conclusion, prem, w, assumptions)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failing_step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_derivation(derivation: Derivation) -> CheckResult:
    """Check every step; report the first failure."""
    if not derivation.steps:
        return CheckResult(False, None, "derivation has no steps")
    prior: list[Atom] = []
    for pos, step in enumerate(derivation.steps, start=1):
        if step.index != pos:
            return CheckResult(False, pos, f"step numbered {step.index}, expected {pos}")
        reason = check_step(step, derivation.assumptions, prior)
        if reason is not None:
            return CheckResult(False, pos, reason)
        prior.append(step.conclusion)
    return CheckResult(True)


# ==========================================================================
# serialization
# ==========================================================================

# One field codec serves atoms, witnesses, steps and derivations.  Out, a
# dataclass is its kind, if it has one, then its fields in declaration
# order; tuples become lists, degrees and rules strings.  In, each field is
# read by the strict decoder of its annotation: a bool is not an int, and
# a side is a list of str.

def _to_json(value):
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, Rule):
        return value.value
    if isinstance(value, Fraction):
        return str(value)
    if is_dataclass(value):
        head = {"kind": value.kind} if hasattr(value, "kind") else {}
        return head | {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return value


def _located(where: str, message: str) -> ParseError:
    return ParseError(f"{where}: {message}" if where else message)


def _from_json(cls, obj, where: str = ""):
    """An instance of the dataclass cls read from its JSON object.

    where names the object's place in the certificate, such as "step 2,
    witness"; each error message starts with the place of the fault.
    """
    if not isinstance(obj, dict):
        raise _located(where, f"{cls.__name__} object expected, got {obj!r}")
    values = {}
    for f in fields(cls):
        here = f"{where}, {f.name}" if where else f.name
        if f.name in obj:
            try:
                values[f.name] = _DECODERS[f.type](obj[f.name], here)
            except (ValueError, TypeError) as exc:
                raise _located(here, str(exc)) from exc
        elif f.default is MISSING:
            raise _located(where, f"{cls.__name__} object missing field {f.name!r}")
    try:
        return cls(**values)
    except (ValueError, TypeError) as exc:
        raise _located(where, f"malformed {cls.__name__} object: {exc}") from exc


def _strict(kind: type, what: str):
    """Decoder of values of exactly the JSON type kind: True is no int."""

    def decode(value, where: str):
        if type(value) is not kind:
            raise _located(where, f"{what} expected, got {value!r}")
        return value

    return decode


def _list_of(item, label: str | None = None):
    """Decoder of a list of items.  With a label, item i (from 1) is placed
    as "label i"; without, at the list's own place."""

    def decode(value, where: str):
        _list(value, where)
        if label is None:
            return tuple(item(v, where) for v in value)
        return tuple(item(v, f"{label} {i}") for i, v in enumerate(value, start=1))

    return decode


def _name(value, where: str) -> str:
    if type(value) is not str or not value:
        raise _located(where, f"variable name expected, got {value!r}")
    return value


def _witness(value, where: str) -> Witness:
    if value is None:
        return None
    kind = value.get("kind") if isinstance(value, dict) else None
    if not isinstance(kind, str) or kind not in WITNESS_KINDS:
        raise _located(where, f"malformed witness object: {value!r}")
    return _from_json(WITNESS_KINDS[kind], value, where)


def _atom(value, where: str) -> Atom:
    return _from_json(Atom, value, where)


_int = _strict(int, "integer")
_list = _strict(list, "list")
_degree_text = _strict(str, "rational degree string")
_rule_name = _strict(str, "rule name")
_DECODERS = {
    "int": _int,
    "tuple[int, ...]": _list_of(_int),
    "VarTuple": _list_of(_name),
    "Fraction": lambda v, where: as_degree(_degree_text(v, where)),
    "Rule": lambda v, where: Rule(_rule_name(v, where)),
    "Atom": _atom,
    "Witness": _witness,
    "tuple[Atom, ...]": _list_of(_atom, "assumption"),
    "tuple[Step, ...]": _list_of(lambda v, where: _from_json(Step, v, where), "step"),
}


def derivation_to_json(derivation: Derivation) -> dict:
    return {"format": CERTIFICATE_FORMAT, **_to_json(derivation)}


def derivation_from_json(obj) -> Derivation:
    if not isinstance(obj, dict):
        raise ParseError("certificate must be a JSON object")
    if type(obj.get("format")) is not int or obj["format"] != CERTIFICATE_FORMAT:
        raise ParseError(f"unsupported certificate format: {obj.get('format')!r}")
    return _from_json(Derivation, obj)


def derivation_to_json_str(derivation: Derivation) -> str:
    """Deterministic text form of the certificate."""
    return json.dumps(derivation_to_json(derivation), indent=2, sort_keys=False)

