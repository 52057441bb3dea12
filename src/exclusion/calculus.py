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
CONTRACT (drop one position whose pair occurs elsewhere).  expand_macros
rewrites a derivation into primitive steps only.

A derivation is a numbered list of steps ending in its goal.  check_step
and check_derivation verify everything; synthesize builds a derivation
from a decision witness and self-checks it before returning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import InternalVerificationError, ParseError
from .model import Atom, ONE, VarTuple, ZERO, as_degree

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


# ==========================================================================
# witnesses
# ==========================================================================

@dataclass(frozen=True)
class PermWitness:
    """order[i] is the premise position shown at conclusion position i."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class ContractWitness:
    """Premise position dropped, and an equal-pair position justifying it."""

    removed: int
    duplicate: int


@dataclass(frozen=True)
class AppendWitness:
    """Tuples appended to the left and right sides by A3."""

    left: VarTuple
    right: VarTuple


@dataclass(frozen=True)
class BlockSwapWitness:
    """A5 split: prefix length, then the two swapped block lengths.

    The second block runs to the end of the tuple; blocks may be empty.
    """

    prefix: int
    first: int
    second: int


@dataclass(frozen=True)
class SwitchWitness:
    """A6 data: length of the shared trailing block and the fresh tuple."""

    shared: int
    fresh: VarTuple


@dataclass(frozen=True)
class RaiseWitness:
    """A7 target degree."""

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

_PREMISE_COUNT = {
    Rule.HYP: 0,
    Rule.A8: 0,
    Rule.A1: 1,
    Rule.A2: 1,
    Rule.A3: 1,
    Rule.A4: 1,
    Rule.A5: 1,
    Rule.A6: 1,
    Rule.A7: 1,
    Rule.PERM: 1,
    Rule.CONTRACT: 1,
}


def check_step(
    step: Step, assumptions: Sequence[Atom], prior: Sequence[Atom]
) -> StepOutcome:
    """Validate one step against the assumptions and earlier conclusions.

    prior[i] must be the conclusion of step i + 1.
    """
    expected = _PREMISE_COUNT.get(step.rule)
    if expected is None:
        return _fail(f"unknown rule {step.rule!r}")
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

    if step.rule == Rule.HYP:
        if w is not None:
            return _fail("HYP takes no witness")
        if concl not in assumptions:
            return _fail("HYP conclusion is not an assumption")
        return _OK

    if step.rule == Rule.A1:
        if w is not None:
            return _fail("A1 takes no witness")
        if prem.left != prem.right:
            return _fail("A1 premise sides must be the same tuple")
        if prem.degree >= ONE:
            return _fail("A1 premise degree must be below 1")
        if concl.degree != ZERO:
            return _fail("A1 conclusion degree must be 0")
        return _OK

    if step.rule == Rule.A2:
        if w is not None:
            return _fail("A2 takes no witness")
        if concl != prem.swapped():
            return _fail("A2 conclusion must swap the premise sides")
        return _OK

    if step.rule == Rule.A3:
        if not isinstance(w, AppendWitness):
            return _fail("A3 needs an append witness")
        if len(w.left) != len(w.right):
            return _fail("A3 appended tuples must have equal length")
        if concl != Atom(prem.left + w.left, prem.right + w.right, prem.degree):
            return _fail("A3 conclusion must append the witness tuples")
        return _OK

    if step.rule == Rule.A4:
        if w is not None:
            return _fail("A4 takes no witness")
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
        if not isinstance(w, BlockSwapWitness):
            return _fail("A5 needs a block-swap witness")
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
        if not isinstance(w, SwitchWitness):
            return _fail("A6 needs a switch witness")
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
        if not isinstance(w, RaiseWitness):
            return _fail("A7 needs a raise witness")
        if w.degree != concl.degree:
            return _fail("A7 witness degree must match the conclusion")
        if concl.degree < prem.degree:
            return _fail("A7 can only raise the degree")
        if (concl.left, concl.right) != (prem.left, prem.right):
            return _fail("A7 preserves the sides")
        return _OK

    if step.rule == Rule.A8:
        if w is not None:
            return _fail("A8 takes no witness")
        if concl.degree != ONE:
            return _fail("A8 conclusion degree must be 1")
        return _OK

    if step.rule == Rule.PERM:
        if not isinstance(w, PermWitness):
            return _fail("PERM needs a permutation witness")
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
        if not isinstance(w, ContractWitness):
            return _fail("CONTRACT needs a removed/duplicate witness")
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
# macro expansion
# ==========================================================================

def _rotation_steps(
    left: list[str], right: list[str], target: list[int]
) -> list[tuple[BlockSwapWitness, tuple[str, ...], tuple[str, ...]]]:
    """A5 witnesses realizing a reordering, by rotating picks to the end.

    target lists current positions in their desired final order.  Mutates
    left/right in place and returns one entry per emitted step.
    """
    n = len(left)
    current = list(range(n))
    out: list[tuple[BlockSwapWitness, tuple[str, ...], tuple[str, ...]]] = []
    if target == current:
        return out
    for want in target:
        j = current.index(want)
        if j == n - 1:
            continue
        current[:] = current[:j] + current[j + 1 :] + [current[j]]
        left[:] = left[:j] + left[j + 1 :] + [left[j]]
        right[:] = right[:j] + right[j + 1 :] + [right[j]]
        out.append((BlockSwapWitness(j, 1, n - j - 1), tuple(left), tuple(right)))
    return out


def expand_macros(derivation: Derivation) -> Derivation:
    """Rewrite PERM and CONTRACT steps into primitive A4/A5 chains.

    The input must check; the output checks and proves the same goal using
    primitive rules only.
    """
    result = check_derivation(derivation)
    if not result.ok:
        raise ValueError(f"cannot expand an invalid derivation: {result.reason}")
    new_steps: list[Step] = []
    mapped: dict[int, int] = {}

    def emit(rule: Rule, premises: tuple[int, ...], concl: Atom, w: Witness) -> int:
        index = len(new_steps) + 1
        new_steps.append(Step(index, rule, premises, concl, w))
        return index

    def emit_rotation(src_index: int, prem: Atom, target: list[int]) -> int:
        left, right = list(prem.left), list(prem.right)
        last = src_index
        for w, new_left, new_right in _rotation_steps(left, right, target):
            last = emit(Rule.A5, (last,), Atom(new_left, new_right, prem.degree), w)
        return last

    for step in derivation.steps:
        refs = tuple(mapped[r] for r in step.premises)
        if step.rule == Rule.PERM:
            prem = derivation.steps[step.premises[0] - 1].conclusion
            mapped[step.index] = emit_rotation(refs[0], prem, list(step.witness.order))
        elif step.rule == Rule.CONTRACT:
            prem = derivation.steps[step.premises[0] - 1].conclusion
            n = prem.arity
            j, k = step.witness.removed, step.witness.duplicate
            others = [i for i in range(n) if i not in (j, k)]
            last = emit_rotation(refs[0], prem, others + [k, j])
            shuffled = Atom(
                tuple(prem.left[i] for i in others + [k, j]),
                tuple(prem.right[i] for i in others + [k, j]),
                prem.degree,
            )
            dropped = Atom(shuffled.left[:-1], shuffled.right[:-1], prem.degree)
            last = emit(Rule.A4, (last,), dropped, None)
            # restore the surviving positions to their original order
            kept = [i for i in range(n) if i != j]
            current = others + [k]
            target = [current.index(i) for i in kept]
            mapped[step.index] = emit_rotation(last, dropped, target)
        else:
            mapped[step.index] = emit(step.rule, refs, step.conclusion, step.witness)

    return Derivation(derivation.assumptions, tuple(new_steps))


# ==========================================================================
# serialization
# ==========================================================================

def _atom_to_json(a: Atom) -> dict:
    return {
        "left": list(a.left),
        "right": list(a.right),
        "degree": str(a.degree),
    }


def _atom_from_json(obj) -> Atom:
    if not isinstance(obj, dict):
        raise ParseError(f"atom object expected, got {type(obj).__name__}")
    try:
        left = tuple(obj["left"])
        right = tuple(obj["right"])
        degree = obj["degree"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed atom object: {obj!r}") from exc
    if not all(isinstance(v, str) for v in left + right):
        raise ParseError("atom sides must be lists of variable names")
    if not isinstance(degree, str):
        raise ParseError("atom degree must be a rational string")
    try:
        return Atom(left, right, as_degree(degree))
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def _witness_to_json(w: Witness) -> dict | None:
    if w is None:
        return None
    if isinstance(w, PermWitness):
        return {"kind": "perm", "order": list(w.order)}
    if isinstance(w, ContractWitness):
        return {"kind": "contract", "removed": w.removed, "duplicate": w.duplicate}
    if isinstance(w, AppendWitness):
        return {"kind": "append", "left": list(w.left), "right": list(w.right)}
    if isinstance(w, BlockSwapWitness):
        return {
            "kind": "block-swap",
            "prefix": w.prefix,
            "first": w.first,
            "second": w.second,
        }
    if isinstance(w, SwitchWitness):
        return {"kind": "switch", "shared": w.shared, "fresh": list(w.fresh)}
    if isinstance(w, RaiseWitness):
        return {"kind": "raise", "degree": str(w.degree)}
    raise TypeError(f"unknown witness {w!r}")


def _require(obj: dict, key: str, types) -> object:
    if key not in obj:
        raise ParseError(f"witness object missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise ParseError(f"witness field {key!r} has the wrong type")
    return value


def _str_tuple(obj: dict, key: str) -> VarTuple:
    value = _require(obj, key, list)
    if not all(isinstance(v, str) for v in value):
        raise ParseError(f"witness field {key!r} must list variable names")
    return tuple(value)


def _witness_from_json(obj) -> Witness:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"malformed witness object: {obj!r}")
    kind = obj["kind"]
    if kind == "perm":
        order = _require(obj, "order", list)
        if not all(isinstance(i, int) for i in order):
            raise ParseError("perm order must list integers")
        return PermWitness(tuple(order))
    if kind == "contract":
        return ContractWitness(
            _require(obj, "removed", int), _require(obj, "duplicate", int)
        )
    if kind == "append":
        return AppendWitness(_str_tuple(obj, "left"), _str_tuple(obj, "right"))
    if kind == "block-swap":
        return BlockSwapWitness(
            _require(obj, "prefix", int),
            _require(obj, "first", int),
            _require(obj, "second", int),
        )
    if kind == "switch":
        return SwitchWitness(_require(obj, "shared", int), _str_tuple(obj, "fresh"))
    if kind == "raise":
        degree = _require(obj, "degree", str)
        try:
            return RaiseWitness(as_degree(degree))
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown witness kind {kind!r}")


def derivation_to_json(derivation: Derivation) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "assumptions": [_atom_to_json(a) for a in derivation.assumptions],
        "steps": [
            {
                "index": s.index,
                "rule": s.rule.value,
                "premises": list(s.premises),
                "conclusion": _atom_to_json(s.conclusion),
                "witness": _witness_to_json(s.witness),
            }
            for s in derivation.steps
        ],
    }


def derivation_from_json(obj) -> Derivation:
    if not isinstance(obj, dict):
        raise ParseError("certificate must be a JSON object")
    if obj.get("format") != CERTIFICATE_FORMAT:
        raise ParseError(f"unsupported certificate format: {obj.get('format')!r}")
    assumptions = obj.get("assumptions")
    steps = obj.get("steps")
    if not isinstance(assumptions, list) or not isinstance(steps, list):
        raise ParseError("certificate needs assumption and step lists")
    parsed_steps = []
    for entry in steps:
        if not isinstance(entry, dict):
            raise ParseError(f"malformed step entry: {entry!r}")
        try:
            rule = Rule(entry["rule"])
        except (KeyError, ValueError) as exc:
            raise ParseError(f"unknown rule in step entry: {entry.get('rule')!r}") from exc
        index = entry.get("index")
        premises = entry.get("premises")
        if not isinstance(index, int) or not isinstance(premises, list):
            raise ParseError(f"malformed step entry: {entry!r}")
        if not all(isinstance(r, int) for r in premises):
            raise ParseError("step premises must list step indices")
        parsed_steps.append(
            Step(
                index,
                rule,
                tuple(premises),
                _atom_from_json(entry.get("conclusion")),
                _witness_from_json(entry.get("witness")),
            )
        )
    return Derivation(
        tuple(_atom_from_json(a) for a in assumptions), tuple(parsed_steps)
    )


def derivation_to_json_str(derivation: Derivation) -> str:
    """Deterministic text form of the certificate."""
    return json.dumps(derivation_to_json(derivation), indent=2, sort_keys=False)


def render_derivation(derivation: Derivation) -> str:
    """Human-readable listing of a derivation."""
    from .parsing import render_human

    lines = []
    for a in derivation.assumptions:
        lines.append(f"assume  {render_human(a)}")
    for s in derivation.steps:
        refs = ",".join(str(r) for r in s.premises)
        refs = f" [{refs}]" if refs else ""
        lines.append(f"{s.index:>3}. {s.rule.value:<8}{refs:<6} {render_human(s.conclusion)}")
    return "\n".join(lines)


# ==========================================================================
# synthesis from decision witnesses
# ==========================================================================

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


def synthesize(assumptions: Sequence[Atom], goal: Atom, witness) -> Derivation:
    """Build a derivation of the goal from a positive decision witness.

    The derivation is checked before being returned; a check failure is an
    internal error, never a user error.
    """
    from . import decision as dec

    b = _Builder(assumptions)

    if isinstance(witness, dec.VacuousDegreeWitness):
        b.add(Rule.A8, (), goal)

    elif isinstance(witness, dec.MembershipWitness):
        src = witness.atom
        ref = b.hyp(src)
        if witness.swapped:
            ref = b.swap(ref, src)
            src = src.swapped()
        b.raise_degree(ref, src, goal.degree)

    elif isinstance(witness, dec.ContradictionWitness):
        ref = b.hyp(witness.atom)
        zero_goal = goal.with_degree(ZERO)
        ref = b.add(Rule.A1, (ref,), zero_goal)
        b.raise_degree(ref, zero_goal, goal.degree)

    elif isinstance(witness, dec.SubsetWitness):
        src = witness.atom
        ref = b.hyp(src)
        if witness.swapped:
            # src's swapped pair set sits inside the goal's, so run the
            # structural chain toward the swapped goal and flip at the end
            target_left, target_right = goal.right, goal.left
        else:
            target_left, target_right = goal.left, goal.right
        ref = b.transform(ref, src, target_left, target_right)
        ref = b.raise_degree(ref, b.atom_at(ref), goal.degree)
        if witness.swapped:
            b.swap(ref, b.atom_at(ref))

    elif isinstance(witness, dec.CoverWitness):
        src = witness.atom
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
        anchor = dict(witness.anchor)
        side_tuple = goal.left if witness.side == "left" else goal.right
        plain = [
            p for p in zip(current.left, current.right) if p[0] != p[1]
        ]
        h = len(plain)
        fresh = tuple(side_tuple[anchor[p]] for p in plain)
        switched = Atom(
            fresh + fresh,
            current.left[:h] + current.right[:h],
            current.degree,
        )
        ref = b.add(
            Rule.A6, (ref,), switched, SwitchWitness(current.arity - h, fresh)
        )
        if witness.side == "left":
            target_left, target_right = goal.left, goal.right
        else:
            target_left, target_right = goal.right, goal.left
        ref = b.transform(ref, switched, target_left, target_right)
        ref = b.raise_degree(ref, b.atom_at(ref), goal.degree)
        if witness.side == "right":
            b.swap(ref, b.atom_at(ref))

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
