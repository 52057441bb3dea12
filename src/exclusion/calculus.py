"""Derivation planning: an A1-A8 derivation from a positive decision witness.

synthesize plans a derivation from a decision witness and self-checks it
before returning.  The rules, their checker and the certificate codec are
in `certificate`.

A domination witness is planned along the first A1-A8 route found, and
otherwise by one DOM step.  A structural chain is one A3 when the target
extends the source, one PAIRS when it has the source's pair set, and
otherwise one A3 that appends the target pairs the source lacks plus one
PAIRS; a derivation has at most seven steps, and its certificate grows
linearly in the arity.  DOM is needed only when a side repeats a variable.
This is measured, not proved: seeded one-premise queries whose sides
repeat no variable never need it (about 26,000 domination YES answers in
the test suite), and the smallest case that does is excl(d ; b) implying
excl(b c c ; c d c).  No YES of the exhaustive keystone space needs it,
and 45, 52 and 53 of about 16,100 YES answers do on the benchmark's
certify-small queries (seeds 101 to 103, arity up to 4).

The planner builds its atoms unchecked (Atom._unchecked): they rearrange
the sides of checked atoms, and the self-check verifies every step anyway.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# a traced run wraps this module's check_derivation, which synthesize calls
from .certificate import AppendWitness, Derivation, RaiseWitness
from .certificate import Rule, Step, SwitchWitness, Witness
from .certificate import check_derivation
from .errors import InternalVerificationError
from .model import Atom, VarTuple, ZERO

Pair = tuple[str, str]
Squares = tuple[tuple[str, tuple[set[str], ...]], ...]


def goal_squares(goal: Atom) -> Squares:
    """Per goal side, the partner-set square at each position: every
    variable the goal variable there is paired with, at any position."""
    left: dict[str, set[str]] = {}
    right: dict[str, set[str]] = {}
    for a, b in zip(goal.left, goal.right):
        left.setdefault(a, set()).add(b)
        right.setdefault(b, set()).add(a)
    return (
        ("left", tuple(map(left.get, goal.left))),
        ("right", tuple(map(right.get, goal.right))),
    )


def a6_cover(
    src: Atom, squares: Squares
) -> tuple[str, tuple[tuple[Pair, int], ...]] | None:
    """Test whether one application of the arity-switching rule suffices.

    src derives the goal through a single switch (plus structural steps and
    at most one side swap) iff for some goal side d, every non-diagonal pair
    (a, b) of src fits inside the partner-set square of one position of d:
    a and b both partner the goal variable at that position.  Diagonal
    pairs ride along in the shared suffix and need no cover.

    squares is goal_squares(goal).  Returns (side, anchor) for the first
    cover found, trying the left side then the right; anchor maps each
    non-diagonal pair of src, in first-occurrence order, to its first
    covering position (0-based).
    """
    for side, partners in squares:
        anchor: dict[Pair, int] = {}
        for pair in zip(src.left, src.right):
            a, b = pair
            if a == b or pair in anchor:
                continue
            i = next((i for i, s in enumerate(partners) if a in s and b in s), None)
            if i is None:
                break
            anchor[pair] = i
        else:
            # a fully diagonal src is contradictory, and the switch rule
            # needs a non-diagonal pair: no single application exists
            return (side, tuple(anchor.items())) if anchor else None
    return None


def end_constant_form(atom: Atom) -> Atom:
    """Equivalent atom with duplicate pairs removed and diagonal pairs last.

    Diagonal pairs (same variable on both sides at a position) move into a
    shared trailing suffix; the remaining pairs keep first-occurrence order.
    The pair set is unchanged, so the result is semantically equivalent.
    """
    pairs = dict.fromkeys(zip(atom.left, atom.right))
    ordered = [p for p in pairs if p[0] != p[1]] + [p for p in pairs if p[0] == p[1]]
    return Atom._unchecked(
        tuple(a for a, _ in ordered), tuple(b for _, b in ordered), atom.degree
    )


class _Builder:
    """Steps of a derivation under construction.

    Every atom it makes rearranges, slices or concatenates the sides of
    atoms already checked, or takes a checked atom's degree, so it is made
    with Atom._unchecked; synthesize checks every step before returning.
    """

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
        return self.add(Rule.A2, (ref,), Atom._unchecked(atom.right, atom.left, atom.degree))

    def raise_degree(self, ref: int, atom: Atom, degree: Fraction) -> int:
        if atom.degree is degree or atom.degree == degree:
            return ref
        raised = Atom._unchecked(atom.left, atom.right, degree)
        return self.add(Rule.A7, (ref,), raised, RaiseWitness(degree))

    def transform(self, ref: int, src: Atom, left: VarTuple, right: VarTuple) -> int:
        """Structural chain from src to an atom with the given sides.

        Requires every pair of src to occur among the target pairs.  When
        the target simply extends src, one append suffices; otherwise
        append the target pairs src lacks, in first-occurrence order, and
        reach the target with one PAIRS step.
        """
        if (src.left, src.right) == (left, right):
            return ref
        n = src.arity
        target = Atom._unchecked(left, right, src.degree)
        if left[:n] == src.left and right[:n] == src.right:
            return self.add(Rule.A3, (ref,), target, AppendWitness(left[n:], right[n:]))
        have = set(zip(src.left, src.right))
        missing = dict.fromkeys(p for p in zip(left, right) if p not in have)
        if missing:
            u, v = zip(*missing)
            appended = Atom._unchecked(src.left + u, src.right + v, src.degree)
            ref = self.add(Rule.A3, (ref,), appended, AppendWitness(u, v))
        return self.add(Rule.PAIRS, (ref,), target)

    def build(self) -> Derivation:
        return Derivation(self.assumptions, tuple(self.steps))


def _membership(b: _Builder, src: Atom, goal: Atom) -> None:
    """HYP of an assumption with the goal's sides, either way round."""
    ref = b.hyp(src)
    if src.left != goal.left:
        ref = b.swap(ref, src)
    b.raise_degree(ref, b.atom_at(ref), goal.degree)


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
    ec = end_constant_form(src)
    ref = b.transform(b.hyp(src), src, ec.left, ec.right)
    # one arity switch moves both sides of every plain pair right
    anchored = dict(anchor)
    side_tuple = goal.left if side == "left" else goal.right
    plain = [p for p in zip(ec.left, ec.right) if p[0] != p[1]]
    h = len(plain)
    fresh = tuple(side_tuple[anchored[p]] for p in plain)
    switched = Atom._unchecked(fresh + fresh, ec.left[:h] + ec.right[:h], ec.degree)
    ref = b.add(Rule.A6, (ref,), switched, SwitchWitness(ec.arity - h, fresh))
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
        zero_goal = Atom._unchecked(goal.left, goal.right, ZERO)
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
