"""Derivation calculus for approximate exclusion atoms.

Primitive rules:

  A1  x |_p x  derives  y |_0 z           (p < 1: a contradictory premise)
  A2  x |_p y  derives  y |_p x
  A3  x |_p y  derives  xu |_p yv         (append, |u| = |v|)
  A4  xuu |_p yvv  derives  xu |_p yv     (drop a repeated trailing block)
  A5  xyz |_p uvw  derives  xzy |_p uwv   (swap two adjacent blocks)
  A6  xw |_p yw  derives  zz |_p xy       (arity switch; z fresh, |w| shared)
  A7  x |_p y  derives  x |_q y           (q >= p: degree can only rise)
  A8  derives  x |_1 y                    (vacuous at degree 1)

plus HYP (use an assumption) and two macro rules validated on component
pairs directly: PERM (any simultaneous reordering of positions) and
CONTRACT (drop one position whose pair occurs elsewhere).  Both are
admissible: each expands into a chain of A5 block swaps, plus one A4 for
CONTRACT, as the test suite shows by expanding and re-checking them.

One rule is this package's, not the paper's:

  DOM  x |_q y  derives  u |_p v          (q <= p, x | y conflicts on the
                                           generic pair of u | v)

It is the semantic domination test of the decision procedure, recomputed
by check_step from the two atoms; it carries no witness.  A derivation
uses it only when the planner below finds no A1-A8 route: no YES of the
exhaustive keystone space needs it, and 45, 52 and 53 of about 16,100
YES answers do on the benchmark's certify-small queries (seeds 101 to
103, arity up to 4).

A derivation is a numbered list of steps ending in its goal.  check_step
and check_derivation verify everything; synthesize plans a derivation
from a decision witness and self-checks it before returning.

Each rule's premise count and witness class are declared once, in RULES;
each witness names its JSON kind through `kind`.  One field codec writes
and reads the certificate: atoms, witnesses, steps and the derivation.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from typing import ClassVar, Sequence

from .counterexample import conflicts, generic_pair
from .errors import InternalVerificationError, ParseError
from .model import Atom, ONE, VarTuple, ZERO, as_degree
from .parsing import render_human, write_text

CERTIFICATE_FORMAT = 1


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
    PERM = "PERM"
    CONTRACT = "CONTRACT"
    DOM = "DOM"


# ==========================================================================
# witnesses
# ==========================================================================

@dataclass(frozen=True)
class PermWitness:
    """order[i] is the premise position shown at conclusion position i."""

    kind: ClassVar[str] = "perm"

    order: tuple[int, ...]


@dataclass(frozen=True)
class ContractWitness:
    """Premise position dropped, and an equal-pair position justifying it."""

    kind: ClassVar[str] = "contract"

    removed: int
    duplicate: int


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


Witness = (
    PermWitness
    | ContractWitness
    | AppendWitness
    | BlockSwapWitness
    | SwitchWitness
    | RaiseWitness
    | None
)

# per rule: its premise count and its witness class, None for no witness
RULES: dict[Rule, tuple[int, type | None]] = {
    Rule.HYP: (0, None),
    Rule.A1: (1, None),
    Rule.A2: (1, None),
    Rule.A3: (1, AppendWitness),
    Rule.A4: (1, None),
    Rule.A5: (1, BlockSwapWitness),
    Rule.A6: (1, SwitchWitness),
    Rule.A7: (1, RaiseWitness),
    Rule.A8: (0, None),
    Rule.PERM: (1, PermWitness),
    Rule.CONTRACT: (1, ContractWitness),
    Rule.DOM: (1, None),
}
WITNESS_KINDS = {cls.kind: cls for _, cls in RULES.values() if cls is not None}


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

@dataclass(frozen=True)
class StepOutcome:
    ok: bool
    reason: str | None = None


def _fail(reason: str) -> StepOutcome:
    return StepOutcome(False, reason)


_OK = StepOutcome(True)


def check_step(
    step: Step, assumptions: Sequence[Atom], prior: Sequence[Atom]
) -> StepOutcome:
    """Validate one step against the assumptions and earlier conclusions.

    prior[i] must be the conclusion of step i + 1.
    """
    signature = RULES.get(step.rule)
    if signature is None:
        return _fail(f"unknown rule {step.rule!r}")
    expected, witness_class = signature
    if len(step.premises) != expected:
        return _fail(f"{step.rule.value} takes {expected} premise(s)")
    for ref in step.premises:
        if not 1 <= ref < step.index:
            return _fail(f"premise reference {ref} is not an earlier step")
        if ref > len(prior):
            return _fail(f"premise reference {ref} has no recorded conclusion")
    concl = step.conclusion
    prem = prior[step.premises[0] - 1] if step.premises else None
    w = step.witness
    if witness_class is None:
        if w is not None:
            return _fail(f"{step.rule.value} takes no witness")
    elif not isinstance(w, witness_class):
        return _fail(f"{step.rule.value} needs a {witness_class.kind} witness")

    if step.rule == Rule.HYP:
        if concl not in assumptions:
            return _fail("HYP conclusion is not an assumption")
        return _OK

    if step.rule == Rule.A1:
        if prem.left != prem.right:
            return _fail("A1 premise sides must be the same tuple")
        if prem.degree >= ONE:
            return _fail("A1 premise degree must be below 1")
        if concl.degree != ZERO:
            return _fail("A1 conclusion degree must be 0")
        return _OK

    if step.rule == Rule.A2:
        if concl != prem.swapped():
            return _fail("A2 conclusion must swap the premise sides")
        return _OK

    if step.rule == Rule.A3:
        if len(w.left) != len(w.right):
            return _fail("A3 appended tuples must have equal length")
        if concl != Atom(prem.left + w.left, prem.right + w.right, prem.degree):
            return _fail("A3 conclusion must append the witness tuples")
        return _OK

    if step.rule == Rule.A4:
        b = prem.arity - concl.arity
        if b < 0:
            return _fail("A4 conclusion cannot be longer than its premise")
        if concl.degree != prem.degree:
            return _fail("A4 preserves the degree")
        if prem.left != concl.left + concl.left[len(concl.left) - b :]:
            return _fail("A4 premise left side must repeat the trailing block")
        if prem.right != concl.right + concl.right[len(concl.right) - b :]:
            return _fail("A4 premise right side must repeat the trailing block")
        return _OK

    if step.rule == Rule.A5:
        a, b1, b2 = w.prefix, w.first, w.second
        if min(a, b1, b2) < 0 or a + b1 + b2 != prem.arity:
            return _fail("A5 split must partition the premise sides")
        cut1, cut2 = a + b1, a + b1 + b2
        swapped_left = prem.left[:a] + prem.left[cut1:cut2] + prem.left[a:cut1]
        swapped_right = prem.right[:a] + prem.right[cut1:cut2] + prem.right[a:cut1]
        if concl != Atom(swapped_left, swapped_right, prem.degree):
            return _fail("A5 conclusion must swap the witnessed blocks")
        return _OK

    if step.rule == Rule.A6:
        h = len(w.fresh)
        if h < 1:
            return _fail("A6 fresh tuple must be nonempty")
        if w.shared < 0 or prem.arity != h + w.shared:
            return _fail("A6 shared length must complete the premise arity")
        if prem.left[h:] != prem.right[h:]:
            return _fail("A6 premise must end in a shared block")
        if concl != Atom(
            w.fresh + w.fresh, prem.left[:h] + prem.right[:h], prem.degree
        ):
            return _fail("A6 conclusion must be fresh-fresh over the moved sides")
        return _OK

    if step.rule == Rule.A7:
        if w.degree != concl.degree:
            return _fail("A7 witness degree must match the conclusion")
        if concl.degree < prem.degree:
            return _fail("A7 can only raise the degree")
        if (concl.left, concl.right) != (prem.left, prem.right):
            return _fail("A7 preserves the sides")
        return _OK

    if step.rule == Rule.A8:
        if concl.degree != ONE:
            return _fail("A8 conclusion degree must be 1")
        return _OK

    if step.rule == Rule.PERM:
        n = prem.arity
        if sorted(w.order) != list(range(n)):
            return _fail("PERM witness must be a permutation of the positions")
        if concl != Atom(
            tuple(prem.left[j] for j in w.order),
            tuple(prem.right[j] for j in w.order),
            prem.degree,
        ):
            return _fail("PERM conclusion must reorder the premise pairs")
        return _OK

    if step.rule == Rule.CONTRACT:
        n = prem.arity
        if not (0 <= w.removed < n and 0 <= w.duplicate < n):
            return _fail("CONTRACT positions out of range")
        if w.removed == w.duplicate:
            return _fail("CONTRACT positions must differ")
        if (prem.left[w.removed], prem.right[w.removed]) != (
            prem.left[w.duplicate],
            prem.right[w.duplicate],
        ):
            return _fail("CONTRACT requires equal pairs at both positions")
        keep = [i for i in range(n) if i != w.removed]
        if concl != Atom(
            tuple(prem.left[i] for i in keep),
            tuple(prem.right[i] for i in keep),
            prem.degree,
        ):
            return _fail("CONTRACT conclusion must drop the removed position")
        return _OK

    if step.rule == Rule.DOM:
        if prem.degree > concl.degree:
            return _fail("DOM cannot lower the degree")
        if not conflicts(prem, generic_pair(concl)):
            return _fail("DOM premise must conflict on the conclusion's generic pair")
        return _OK

    return _fail(f"unhandled rule {step.rule!r}")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failing_step: int | None = None
    reason: str | None = None
    exact_fragment: bool = False

    def __bool__(self) -> bool:
        return self.ok


def check_derivation(derivation: Derivation) -> CheckResult:
    """Check every step; report the first failure.

    exact_fragment is set when the derivation stays in the degree-0
    fragment, where the rules specialize to the exact-exclusion system.
    """
    if not derivation.steps:
        return CheckResult(False, None, "derivation has no steps")
    prior: list[Atom] = []
    for pos, step in enumerate(derivation.steps, start=1):
        if step.index != pos:
            return CheckResult(False, pos, f"step numbered {step.index}, expected {pos}")
        outcome = check_step(step, derivation.assumptions, prior)
        if not outcome.ok:
            return CheckResult(False, pos, outcome.reason)
        prior.append(step.conclusion)
    exact = all(s.conclusion.degree == ZERO for s in derivation.steps)
    return CheckResult(True, None, None, exact)


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


def _from_json(cls, obj):
    """An instance of the dataclass cls read from its JSON object."""
    if not isinstance(obj, dict):
        raise ParseError(f"{cls.__name__} object expected, got {obj!r}")
    values = {}
    try:
        for f in fields(cls):
            if f.name in obj:
                values[f.name] = _DECODERS[f.type](obj[f.name])
            elif f.default is MISSING:
                raise ParseError(f"{cls.__name__} object missing field {f.name!r}")
        return cls(**values)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed {cls.__name__} object: {exc}") from exc


def _strict(kind: type, what: str):
    """Decoder of values of exactly the JSON type kind: True is no int."""

    def decode(value):
        if type(value) is not kind:
            raise ParseError(f"{what} expected, got {value!r}")
        return value

    return decode


def _list_of(item):
    def decode(value):
        return tuple(map(item, _list(value)))

    return decode


def _witness(value) -> Witness:
    if value is None:
        return None
    kind = value.get("kind") if isinstance(value, dict) else None
    if not isinstance(kind, str) or kind not in WITNESS_KINDS:
        raise ParseError(f"malformed witness object: {value!r}")
    return _from_json(WITNESS_KINDS[kind], value)


_int = _strict(int, "integer")
_list = _strict(list, "list")
_DECODERS = {
    "int": _int,
    "tuple[int, ...]": _list_of(_int),
    "VarTuple": _list_of(_strict(str, "variable name")),
    "Fraction": lambda v: as_degree(_strict(str, "rational degree string")(v)),
    "Rule": lambda v: Rule(_strict(str, "rule name")(v)),
    "Atom": lambda v: _from_json(Atom, v),
    "Witness": _witness,
    "tuple[Atom, ...]": _list_of(lambda v: _from_json(Atom, v)),
    "tuple[Step, ...]": _list_of(lambda v: _from_json(Step, v)),
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


def write_derivation(derivation: Derivation, path) -> None:
    """Write the certificate's text form; an unwritable path is a ParseError."""
    write_text(path, derivation_to_json_str(derivation) + "\n")


def render_derivation(derivation: Derivation) -> str:
    """Human-readable listing of a derivation."""
    lines = []
    for a in derivation.assumptions:
        lines.append(f"assume  {render_human(a)}")
    for s in derivation.steps:
        refs = ",".join(str(r) for r in s.premises)
        refs = f" [{refs}]" if refs else ""
        lines.append(f"{s.index:>3}. {s.rule.value:<8}{refs:<6} {render_human(s.conclusion)}")
    return "\n".join(lines)


# ==========================================================================
# derivation planning from decision witnesses
# ==========================================================================

Pair = tuple[str, str]
# per goal side, each variable's bitmask of the goal positions it partners
Squares = tuple[tuple[str, dict[str, int]], ...]


def goal_squares(goal: Atom) -> Squares:
    """Per goal side, a bitmask index of the partner-set squares.

    The square at a position of a side is the partner set of the goal
    variable there: every variable it is paired with, at any position.
    The index maps each variable v to the bitmask whose bit i is set when
    v lies in the square at position i.
    """
    left_partners: dict[str, set[str]] = {}
    right_partners: dict[str, set[str]] = {}
    for a, b in zip(goal.left, goal.right):
        left_partners.setdefault(a, set()).add(b)
        right_partners.setdefault(b, set()).add(a)
    left, right = {}, {}
    for i, (a, b) in enumerate(zip(goal.left, goal.right)):
        for v in left_partners[a]:
            left[v] = left.get(v, 0) | 1 << i
        for v in right_partners[b]:
            right[v] = right.get(v, 0) | 1 << i
    return ("left", left), ("right", right)


def a6_cover(
    src: Atom, squares: Squares
) -> tuple[str, tuple[tuple[Pair, int], ...]] | None:
    """Test whether one application of the arity-switching rule suffices.

    src derives the goal through a single switch (plus structural steps and
    at most one side swap) iff for some goal side d, every non-diagonal pair
    (a, b) of src fits inside the partner-set square of one position of d:
    a and b both partner the goal variable at that position.  Diagonal
    pairs ride along in the shared suffix and need no cover.

    squares is goal_squares(goal): the squares holding both a and b are the
    set bits of the AND of their masks.  Returns (side, anchor) for the
    first cover found, trying the left side then the right, and gives up a
    side at its first uncovered pair; anchor maps each non-diagonal pair of
    src, in first-occurrence order, to its smallest covering goal position
    (0-based), the lowest set bit.
    """
    for side, masks in squares:
        anchor: dict[Pair, int] = {}
        for pair in zip(src.left, src.right):
            a, b = pair
            if a == b or pair in anchor:
                continue
            shared = masks.get(a, 0) & masks.get(b, 0)
            if not shared:
                break
            anchor[pair] = (shared & -shared).bit_length() - 1
        else:
            if not anchor:
                # fully diagonal src is contradictory; the switch rule needs
                # a non-diagonal pair, so no single application exists
                return None
            return side, tuple(anchor.items())
    return None


def end_constant_form(atom: Atom) -> Atom:
    """Equivalent atom with duplicate pairs removed and diagonal pairs last.

    Diagonal pairs (same variable on both sides at a position) move into a
    shared trailing suffix; the remaining pairs keep first-occurrence order.
    The pair set is unchanged, so the result is semantically equivalent.
    """
    pairs = dict.fromkeys(zip(atom.left, atom.right))
    ordered = [p for p in pairs if p[0] != p[1]] + [p for p in pairs if p[0] == p[1]]
    return Atom(
        tuple(a for a, _ in ordered),
        tuple(b for _, b in ordered),
        atom.degree,
    )


class _Builder:
    def __init__(self, assumptions: Sequence[Atom]):
        self.assumptions = tuple(assumptions)
        self.steps: list[Step] = []

    def add(self, rule: Rule, premises: tuple[int, ...], concl: Atom, w: Witness = None) -> int:
        index = len(self.steps) + 1
        self.steps.append(Step(index, rule, premises, concl, w))
        return index

    def atom_at(self, ref: int) -> Atom:
        return self.steps[ref - 1].conclusion

    def hyp(self, atom: Atom) -> int:
        return self.add(Rule.HYP, (), atom)

    def swap(self, ref: int, atom: Atom) -> int:
        return self.add(Rule.A2, (ref,), atom.swapped())

    def raise_degree(self, ref: int, atom: Atom, degree: Fraction) -> int:
        if atom.degree == degree:
            return ref
        raised = atom.with_degree(degree)
        return self.add(Rule.A7, (ref,), raised, RaiseWitness(degree))

    def transform(self, ref: int, src: Atom, left: VarTuple, right: VarTuple) -> int:
        """Structural chain from src to an atom with the given sides.

        Requires every pair of src to occur among the target pairs.  When
        the target simply extends src, one append suffices; otherwise
        append the whole target, then contract away the original positions.
        """
        if (src.left, src.right) == (left, right):
            return ref
        n = src.arity
        if left[:n] == src.left and right[:n] == src.right:
            extended = Atom(left, right, src.degree)
            return self.add(
                Rule.A3, (ref,), extended, AppendWitness(left[n:], right[n:])
            )
        appended = Atom(src.left + left, src.right + right, src.degree)
        ref = self.add(Rule.A3, (ref,), appended, AppendWitness(left, right))
        current = appended
        for _ in range(src.arity):
            cpairs = list(zip(current.left, current.right))
            dup = next(i for i in range(1, len(cpairs)) if cpairs[i] == cpairs[0])
            reduced = Atom(current.left[1:], current.right[1:], current.degree)
            ref = self.add(
                Rule.CONTRACT, (ref,), reduced, ContractWitness(0, dup)
            )
            current = reduced
        return ref

    def build(self) -> Derivation:
        return Derivation(self.assumptions, tuple(self.steps))


def _membership(b: _Builder, src: Atom, goal: Atom) -> None:
    """HYP of an assumption with the goal's sides, either way round."""
    ref = b.hyp(src)
    if src.left != goal.left:
        ref = b.swap(ref, src)
        src = src.swapped()
    b.raise_degree(ref, src, goal.degree)


def _toward(b: _Builder, ref: int, src: Atom, goal: Atom, swapped: bool) -> None:
    """Structural chain from src to the goal, then raise the degree.

    When swapped, src's pairs sit inside the swapped goal's, so the chain
    runs toward the swapped goal and flips at the end.
    """
    if swapped:
        ref = b.transform(ref, src, goal.right, goal.left)
    else:
        ref = b.transform(ref, src, goal.left, goal.right)
    ref = b.raise_degree(ref, b.atom_at(ref), goal.degree)
    if swapped:
        b.swap(ref, b.atom_at(ref))


def _switch(
    b: _Builder, src: Atom, goal: Atom, side: str, anchor: tuple[tuple[Pair, int], ...]
) -> None:
    """One arity switch covering src's plain pairs through a goal side.

    side and anchor are a6_cover's: each plain pair of src maps to a goal
    position of that side, whose variable becomes the pair's fresh one.
    """
    ref = b.hyp(src)
    # contract duplicate pairs, keeping first occurrences
    current = src
    while True:
        cpairs = list(zip(current.left, current.right))
        dup = next(
            (
                (i, cpairs.index(cpairs[i]))
                for i in range(len(cpairs))
                if cpairs.index(cpairs[i]) < i
            ),
            None,
        )
        if dup is None:
            break
        removed, keep = dup
        reduced = Atom(
            current.left[:removed] + current.left[removed + 1 :],
            current.right[:removed] + current.right[removed + 1 :],
            current.degree,
        )
        ref = b.add(Rule.CONTRACT, (ref,), reduced, ContractWitness(removed, keep))
        current = reduced
    # reorder into end-constant form: plain pairs first, diagonals last
    ec = end_constant_form(current)
    if (ec.left, ec.right) != (current.left, current.right):
        cpairs = list(zip(current.left, current.right))
        order = tuple(cpairs.index(p) for p in zip(ec.left, ec.right))
        ref = b.add(Rule.PERM, (ref,), ec, PermWitness(order))
        current = ec
    # one arity switch moves both sides of every plain pair right
    anchored = dict(anchor)
    side_tuple = goal.left if side == "left" else goal.right
    plain = [p for p in zip(current.left, current.right) if p[0] != p[1]]
    h = len(plain)
    fresh = tuple(side_tuple[anchored[p]] for p in plain)
    switched = Atom(fresh + fresh, current.left[:h] + current.right[:h], current.degree)
    ref = b.add(Rule.A6, (ref,), switched, SwitchWitness(current.arity - h, fresh))
    _toward(b, ref, switched, goal, side == "right")


def _plan(b: _Builder, goal: Atom, witness) -> None:
    """Derive a dominated goal along the first A1-A8 route, else by DOM.

    The assumptions of degree at most p are tried in input order: first
    one with the goal's sides, either way round; then, per assumption, its
    pair set inside the goal's, its swapped pair set, and one arity switch.
    The search starts at the witness, the first assumption that dominates
    the goal: an assumption with a route implies the goal on its own, and
    one that does so dominates it.
    """
    p_num, p_den = goal.degree.numerator, goal.degree.denominator
    usable = [
        a for a in b.assumptions[witness.index :]
        if a.degree.numerator * p_den <= p_num * a.degree.denominator
    ]
    for src in usable:
        if (src.left, src.right) in ((goal.left, goal.right), (goal.right, goal.left)):
            return _membership(b, src, goal)
    goal_pairs = frozenset(zip(goal.left, goal.right))
    squares = None
    for src in usable:
        if goal_pairs.issuperset(zip(src.left, src.right)):
            return _toward(b, b.hyp(src), src, goal, False)
        if goal_pairs.issuperset(zip(src.right, src.left)):
            return _toward(b, b.hyp(src), src, goal, True)
        if squares is None:
            squares = goal_squares(goal)
        cover = a6_cover(src, squares)
        if cover is not None:
            return _switch(b, src, goal, *cover)
    b.add(Rule.DOM, (b.hyp(witness.atom),), goal)


def synthesize(assumptions: Sequence[Atom], goal: Atom, witness) -> Derivation:
    """Plan a derivation of the goal from a positive decision witness.

    The derivation is checked before being returned; a check failure is an
    internal error, never a user error.
    """
    b = _Builder(assumptions)
    kind = getattr(witness, "kind", None)

    if kind == "vacuous-degree":
        b.add(Rule.A8, (), goal)

    elif kind == "contradiction":
        ref = b.hyp(witness.atom)
        zero_goal = goal.with_degree(ZERO)
        ref = b.add(Rule.A1, (ref,), zero_goal)
        b.raise_degree(ref, zero_goal, goal.degree)

    elif kind == "domination":
        _plan(b, goal, witness)

    else:
        raise ValueError(f"cannot synthesize from witness {witness!r}")

    derivation = b.build()
    if derivation.goal != goal:
        raise InternalVerificationError(
            f"synthesized endpoint {derivation.goal} differs from goal {goal}"
        )
    result = check_derivation(derivation)
    if not result.ok:
        raise InternalVerificationError(
            f"synthesized step {result.failing_step} fails: {result.reason}"
        )
    return derivation
