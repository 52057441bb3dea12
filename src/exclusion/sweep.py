"""Exhaustive comparison of the decision procedure against team semantics.

The keystone space: all instances over variables a, b, c with tuple
lengths at most 2, at most two assumptions, and degrees in {0, 1/4, 1/3}.
That is 270 atoms, 36,586 assumption sets, 9,878,220 instances.  For each
one the decision verdict is compared against a brute-force search for a
separating team within the row and value bounds of its counterexample
plan, and the certificates are exercised.

Three layers make the volume tractable:

* Teams are enumerated once, canonically up to value renaming, level by
  level into packed arrays already sorted by row count, and turned into
  per-atom satisfaction bitmasks.  Satisfaction only compares values for
  equality, so renaming representatives carry the whole space.  Conflict
  words are computed and cached per single column pair only; a tuple
  conflict is a conflict at every position, so a multi-column word is the
  AND of single-column words.  The removal counts of the last column
  pair are kept, so the degrees of one pair share one table lookup.
* Instances are grouped under variable renaming.  Decision, semantics,
  and plan bounds all commute with renaming, so one representative per
  class settles the class; a modular sample re-runs the decision directly
  on unreduced instances to cross-check the transfer.
* The per-instance search is a numpy bitwise AND scan with early exit
  over 64-team words.  Banks are sorted by row count, so the teams within
  a plan's row bound form a prefix; the row mask covers only that prefix
  and the scan stops at its end.

Min-removal over a packed team is a table lookup: conflicts between rows
i and j form a 16-bit word (bit i*4+j), and the table holds the least
number of rows covering every conflict, which is exactly the removal
count the semantics module computes.  A team satisfies an atom of degree
num/den when that count is at most floor(num * rows / den), one uint8
compare against a per-degree budget array.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from . import kernel
from .calculus import check_derivation, synthesize
from .counterexample import build_team, domain_size_bound, verify
from .counterexample import plan as counterexample_plan
from .decision import decide
from .model import Atom
from .oracle import DEFAULT_BUDGET, oracle_implies

KEYSTONE_VARS = ("a", "b", "c")
KEYSTONE_DEGREES = (Fraction(0), Fraction(1, 4), Fraction(1, 3))
KEYSTONE_MAX_ROWS = 4
KEYSTONE_MAX_VALUES = 12
# every SAMPLE_STRIDE-th unreduced instance is re-decided directly
SAMPLE_STRIDE = 61
# oracle_spot_check's comparisons per planned team size k
SPOT_CHECK_COUNTS = {1: 30, 2: 170, 3: 20, 4: 2}

_removal_table: np.ndarray | None = None


def removal_table() -> np.ndarray:
    """Least rows covering every conflict, for each 16-bit conflict word."""
    global _removal_table
    if _removal_table is None:
        words = np.arange(1 << 16, dtype=np.uint32)
        best = np.full(words.shape, 255, dtype=np.uint8)
        for chosen in range(1 << 4):
            killed = 0
            for i in range(4):
                if chosen >> i & 1:
                    for j in range(4):
                        killed |= 1 << (i * 4 + j)
                        killed |= 1 << (j * 4 + i)
            covered = (words & ~np.uint32(killed)) == 0
            size = bin(chosen).count("1")
            np.minimum(
                best,
                np.where(covered, size, 255).astype(np.uint8),
                out=best,
            )
        _removal_table = best
    return _removal_table


def pack_mask(flags: np.ndarray) -> np.ndarray:
    """Bools to uint64 words, one bit per team, zero-padded at the top."""
    count = flags.shape[0]
    words = (count + 63) // 64
    padded = np.zeros(words * 64, dtype=bool)
    padded[:count] = flags
    return np.packbits(padded, bitorder="little").view(np.uint64)


class TeamBank:
    """Canonical teams packed for mask scans, sorted by row count."""

    def __init__(
        self,
        n_vars: int,
        max_rows: int,
        max_values: int,
        cells: np.ndarray,
        n_rows: np.ndarray,
        n_values: np.ndarray,
    ):
        self.n_vars = n_vars
        self.max_rows = max_rows
        self.max_values = max_values
        self.cells = cells
        self.n_rows = n_rows
        self.n_values = n_values
        self._words: dict[tuple[int, int], np.ndarray] = {}
        self._removed: tuple[tuple, np.ndarray] | None = None
        self._budgets: dict[Fraction, np.ndarray] = {}
        self._rows_le: dict[int, np.ndarray] = {}
        self._values_le: dict[int, np.ndarray] = {}
        self._ones: np.ndarray | None = None

    @classmethod
    def build(cls, n_vars: int, max_rows: int, max_values: int) -> "TeamBank":
        cells, n_rows, n_values = kernel.enumerate_packed(
            n_vars, max_rows, max_values, DEFAULT_BUDGET
        )
        return cls(n_vars, max_rows, max_values, cells, n_rows, n_values)

    @property
    def size(self) -> int:
        return self.cells.shape[0]

    def conflict_words(self, left_cols, right_cols) -> np.ndarray:
        """The kernel's conflict word for a pair of column tuples.

        Two rows conflict on tuples exactly when they conflict at every
        position, and masking bits past the row count commutes with AND,
        so a multi-column word is the AND of single-column words.  Only
        those are cached: at most n_vars ** 2 arrays.
        """
        left_cols, right_cols = tuple(left_cols), tuple(right_cols)
        if not left_cols or len(left_cols) != len(right_cols):
            raise ValueError("column tuples must be nonempty and of equal length")
        words = self._column_word(left_cols[0], right_cols[0])
        for left, right in zip(left_cols[1:], right_cols[1:]):
            words = words & self._column_word(left, right)
        return words

    def _column_word(self, left: int, right: int) -> np.ndarray:
        key = (left, right)
        words = self._words.get(key)
        if words is None:
            words = self._words[key] = kernel.conflict_words(
                self.cells, self.n_rows, self.n_vars, left, right
            )
        return words

    def satisfaction_mask(self, left_cols, right_cols, degree: Fraction) -> np.ndarray:
        cols = (tuple(left_cols), tuple(right_cols))
        return pack_mask(self._removal_counts(cols) <= self._budget(degree))

    def _removal_counts(self, cols: tuple) -> np.ndarray:
        """Rows each team must lose for a pair of column tuples.

        Only the last pair's counts are kept: callers ask for the degrees
        of one pair in a row, and one array is the size of the bank.
        """
        if self._removed is None or self._removed[0] != cols:
            words = self.conflict_words(*cols)
            self._removed = (cols, removal_table().take(words))
        return self._removed[1]

    def _budget(self, degree: Fraction) -> np.ndarray:
        """Most rows each team may lose at this degree, floor(degree * rows).

        For nonnegative integers, removed * den <= num * rows holds exactly
        when removed <= (num * rows) // den, so one uint8 compare decides
        satisfaction.
        """
        budget = self._budgets.get(degree)
        if budget is None:
            budget = self._budgets[degree] = (
                self.n_rows.astype(np.int64) * degree.numerator // degree.denominator
            ).astype(np.uint8)
        return budget

    def row_mask(self, max_rows: int) -> np.ndarray:
        """Teams with at most max_rows rows, packed up to the last of them.

        The bank is sorted by row count, so these teams are a prefix and
        the mask is only as many words as that prefix needs.
        """
        k = min(max_rows, self.max_rows)
        mask = self._rows_le.get(k)
        if mask is None:
            end = int(np.searchsorted(self.n_rows, k, side="right"))
            mask = self._rows_le[k] = pack_mask(np.ones(end, dtype=bool))
        return mask

    def value_mask(self, max_values: int) -> np.ndarray:
        d = min(max_values, 255)
        mask = self._values_le.get(d)
        if mask is None:
            mask = self._values_le[d] = pack_mask(self.n_values <= d)
        return mask

    def all_mask(self) -> np.ndarray:
        if self._ones is None:
            words = (self.size + 63) // 64
            self._ones = np.full(words, 2**64 - 1, dtype=np.uint64)
        return self._ones


def keystone_atoms() -> list[Atom]:
    """The 270 atoms of the keystone space, in fixed order."""
    tuples = [(v,) for v in KEYSTONE_VARS]
    tuples += [tuple(t) for t in product(KEYSTONE_VARS, repeat=2)]
    atoms = []
    for x in tuples:
        for y in tuples:
            if len(x) == len(y):
                for degree in KEYSTONE_DEGREES:
                    atoms.append(Atom(x, y, degree))
    return atoms


def _atom_images(atoms: list[Atom]) -> np.ndarray:
    """Atom index under each variable permutation; identity row first.

    Shape (6, len(atoms) + 1): the last column is a sentinel index that
    every permutation fixes, standing for "no atom".
    """
    index = {(a.left, a.right, a.degree): i for i, a in enumerate(atoms)}
    perms = sorted(permutations(KEYSTONE_VARS))
    img = np.zeros((len(perms), len(atoms) + 1), dtype=np.int64)
    for p, perm in enumerate(perms):
        renaming = dict(zip(KEYSTONE_VARS, perm))
        for i, a in enumerate(atoms):
            left = tuple(renaming[v] for v in a.left)
            right = tuple(renaming[v] for v in a.right)
            img[p, i] = index[left, right, a.degree]
        img[p, len(atoms)] = len(atoms)
    return img


def _premise_sets(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Assumption sets of size <= 2 as sorted index pairs, sentinel-padded."""
    first = [n_atoms]
    second = [n_atoms]
    for i in range(n_atoms):
        first.append(i)
        second.append(n_atoms)
    for i in range(n_atoms):
        for j in range(i + 1, n_atoms):
            first.append(i)
            second.append(j)
    return np.array(first, dtype=np.int64), np.array(second, dtype=np.int64)


@dataclass
class Tally:
    """Failure counter keeping the first ten concrete examples."""

    count: int = 0
    examples: list = field(default_factory=list)

    def add(self, example) -> None:
        self.count += 1
        if len(self.examples) < 10:
            self.examples.append(example)

    def __bool__(self) -> bool:
        return self.count > 0


@dataclass
class KeystoneReport:
    """Outcome of the exhaustive keystone sweep."""

    instances: int
    classes: int
    true_classes: int
    false_classes: int
    disagreements: Tally
    derivation_failures: Tally
    counterexample_failures: Tally
    bound_violations: Tally
    sample_size: int
    sample_mismatches: Tally
    elapsed: float
    setup_s: float  # bank build plus the 270 masks, inside elapsed


def run_keystone() -> KeystoneReport:
    """Sweep the whole keystone space; see the module docstring.

    Returns tallies only; asserting on them is the caller's business.
    """
    start = time.perf_counter()
    atoms = keystone_atoms()
    n_atoms = len(atoms)
    sentinel = n_atoms
    base = n_atoms + 2  # above any index or sentinel, keeps keys injective
    span = base * base

    setup_start = time.perf_counter()
    bank = TeamBank.build(len(KEYSTONE_VARS), KEYSTONE_MAX_ROWS, KEYSTONE_MAX_VALUES)
    col = {v: i for i, v in enumerate(KEYSTONE_VARS)}
    masks = []
    for a in atoms:
        left_cols = [col[v] for v in a.left]
        right_cols = [col[v] for v in a.right]
        masks.append(bank.satisfaction_mask(left_cols, right_cols, a.degree))
    ones = bank.all_mask()
    setup_s = time.perf_counter() - setup_start

    img = _atom_images(atoms)
    first, second = _premise_sets(n_atoms)
    n_sets = first.shape[0]

    # per-permutation key component of the assumption set, order-normalized
    set_parts = np.empty((img.shape[0], n_sets), dtype=np.int64)
    for p in range(img.shape[0]):
        one = img[p][first]
        two = img[p][second]
        set_parts[p] = np.minimum(one, two) * base + np.maximum(one, two)

    verdict_map = np.zeros(n_atoms * span, dtype=np.uint8)

    disagreements = Tally()
    derivation_failures = Tally()
    counterexample_failures = Tally()
    bound_violations = Tally()
    sample_mismatches = Tally()
    classes = true_classes = false_classes = 0
    sample_size = 0

    def describe(s: int, g: int) -> tuple:
        sigma_idx = [int(i) for i in (first[s], second[s]) if i != sentinel]
        return tuple(str(atoms[i]) for i in sigma_idx), str(atoms[g])

    for g in range(n_atoms):
        goal = atoms[g]
        keys = img[:, g, None] * span + set_parts
        own = keys[0]
        min_keys = keys.min(axis=0)
        reps = np.nonzero(min_keys == own)[0]

        for s in reps:
            sigma_idx = [int(i) for i in (first[s], second[s]) if i != sentinel]
            sigma = tuple(atoms[i] for i in sigma_idx)
            verdict = decide(sigma, goal)
            classes += 1
            verdict_map[own[s]] = 1 if verdict.holds else 2

            plan = verdict.plan
            if plan is None:
                plan = counterexample_plan(sigma, goal)
            a_mask = masks[sigma_idx[0]] if len(sigma_idx) > 0 else ones
            b_mask = masks[sigma_idx[1]] if len(sigma_idx) > 1 else ones
            found = kernel.any_counterexample(
                a_mask,
                b_mask,
                masks[g],
                bank.row_mask(plan.k),
                bank.value_mask(domain_size_bound(plan)),
            )
            if verdict.holds == found:
                disagreements.add((*describe(s, g), verdict.holds, found))

            if verdict.holds:
                true_classes += 1
                try:
                    derivation = synthesize(sigma, goal, verdict.witness)
                    result = check_derivation(derivation)
                    if not result.ok or derivation.goal != goal:
                        derivation_failures.add((*describe(s, g), result.reason))
                except Exception as exc:
                    derivation_failures.add((*describe(s, g), repr(exc)))
            else:
                false_classes += 1
                try:
                    team = build_team(plan)
                    if not verify(team, sigma, goal):
                        counterexample_failures.add((*describe(s, g), "verify"))
                    if team.value_count() > domain_size_bound(plan):
                        bound_violations.add(
                            (*describe(s, g), team.value_count())
                        )
                except Exception as exc:
                    counterexample_failures.add((*describe(s, g), repr(exc)))

        # modular sample: re-run the decision on unreduced instances and
        # compare with the verdict recorded for their class
        start_offset = (-g * n_sets) % SAMPLE_STRIDE
        for s in range(start_offset, n_sets, SAMPLE_STRIDE):
            sample_size += 1
            sigma_idx = [int(i) for i in (first[s], second[s]) if i != sentinel]
            sigma = tuple(atoms[i] for i in sigma_idx)
            verdict = decide(sigma, goal)
            stored = verdict_map[min_keys[s]]
            if stored == 0 or (stored == 1) != verdict.holds:
                sample_mismatches.add((*describe(s, g), int(stored), verdict.holds))

    return KeystoneReport(
        instances=n_atoms * n_sets,
        classes=classes,
        true_classes=true_classes,
        false_classes=false_classes,
        disagreements=disagreements,
        derivation_failures=derivation_failures,
        counterexample_failures=counterexample_failures,
        bound_violations=bound_violations,
        sample_size=sample_size,
        sample_mismatches=sample_mismatches,
        elapsed=time.perf_counter() - start,
        setup_s=setup_s,
    )


def oracle_spot_check() -> tuple[int, Tally]:
    """Replay sampled keystone instances through the literal bounded oracle.

    Draws instances from seed 22, stratified by planned team size k as
    SPOT_CHECK_COUNTS says (larger k means an exponentially larger search
    space, so fewer draws; k = 4 runs are kept to instances over at most
    two variables).  Returns the number
    of comparisons made and mismatches between the decision and
    oracle_implies at the plan's bounds.
    """
    remaining = dict(SPOT_CHECK_COUNTS)
    atoms = keystone_atoms()
    rng = random.Random(22)
    mismatches = Tally()
    compared = 0
    for _ in range(200_000):
        if not any(remaining.values()):
            break
        size = rng.choice((0, 1, 1, 2, 2, 2))
        sigma = tuple(atoms[rng.randrange(len(atoms))] for _ in range(size))
        if size == 2 and sigma[0] == sigma[1]:
            continue
        goal = atoms[rng.randrange(len(atoms))]
        plan = counterexample_plan(sigma, goal)
        k = plan.k
        if remaining.get(k, 0) <= 0:
            continue
        if k >= 4 and len(plan.schema) > 2:
            continue
        remaining[k] -= 1
        compared += 1
        result = oracle_implies(
            sigma, goal, max_rows=k, max_values=domain_size_bound(plan)
        )
        verdict = decide(sigma, goal)
        if result.implied != verdict.holds:
            mismatches.add(
                (
                    tuple(str(a) for a in sigma),
                    str(goal),
                    verdict.holds,
                    result.implied,
                )
            )
    return compared, mismatches
