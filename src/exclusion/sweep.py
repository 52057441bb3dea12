"""Exhaustive comparison of the decision procedure against team semantics.

The keystone space: all instances over variables a, b, c with tuple
lengths at most 2, at most two assumptions, and degrees in {0, 1/4, 1/3}.
That is 270 atoms, 36,586 assumption sets, 9,878,220 instances.  For each
one the decision verdict is compared against a search for a separating
team within the row and value bounds of its counterexample plan, and the
certificates are exercised: every YES derivation is synthesized (which
checks it) and every NO team is built and verified.

Two layers make the volume tractable:

* The search runs over a `kernel.TeamBank` of every canonical team with
  at most 4 rows and 12 values, built once with one satisfaction mask per
  atom class (81 for the 270 atoms); an instance is one masked scan
  (`kernel.any_counterexample`).
* Instances are grouped under variable renaming.  Decision, semantics,
  and plan bounds all commute with renaming, so one representative per
  class settles the class; a modular sample re-runs the decision directly
  on unreduced instances to cross-check the transfer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from .calculus import synthesize
from .counterexample import search_bounds, verified_counterexample
from .decision import decide
from .kernel import TeamBank, any_counterexample
from .model import Atom, atom_columns, schema_order
from .oracle import oracle_implies

KEYSTONE_VARS = ("a", "b", "c")
KEYSTONE_DEGREES = (Fraction(0), Fraction(1, 4), Fraction(1, 3))
KEYSTONE_MAX_ROWS = 4
KEYSTONE_MAX_VALUES = 12
# every SAMPLE_STRIDE-th unreduced instance is re-decided directly
SAMPLE_STRIDE = 61
# oracle_spot_check's comparisons per planned team size k
SPOT_CHECK_COUNTS = {1: 30, 2: 170, 3: 20, 4: 2}


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
    n = n_atoms
    pairs = [(n, n)] + [(i, n) for i in range(n)] + list(combinations(range(n), 2))
    first, second = np.array(pairs, dtype=np.int64).T.copy()
    return first, second


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
    setup_s: float  # bank build plus its 81 class masks, inside elapsed
    scan_s: float  # inside any_counterexample, inside elapsed


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
    masks = [bank.satisfaction_mask(*atom_columns(KEYSTONE_VARS, a), a.degree) for a in atoms]
    masks.append(bank.all_mask())  # at the sentinel index: no premise
    setup_s = time.perf_counter() - setup_start

    img = _atom_images(atoms)
    first, second = _premise_sets(n_atoms)
    n_sets = first.shape[0]
    sigmas = [
        tuple(atoms[i] for i in pair if i != sentinel)
        for pair in zip(first.tolist(), second.tolist())
    ]

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
    scan_s = 0.0

    def describe(s: int, g: int) -> tuple:
        return tuple(map(str, sigmas[s])), str(atoms[g])

    for g in range(n_atoms):
        goal = atoms[g]
        keys = img[:, g, None] * span + set_parts
        own = keys[0]
        min_keys = keys.min(axis=0)
        reps = np.nonzero(min_keys == own)[0]

        for s in reps:
            sigma = sigmas[s]
            verdict = decide(sigma, goal)
            classes += 1
            verdict_map[own[s]] = 1 if verdict.holds else 2

            rows, values = search_bounds(sigma, goal, verdict.plan)
            rc_mask = bank.row_mask(rows)
            nv_mask = bank.value_mask(values)
            scan_start = time.perf_counter()
            found = any_counterexample(
                masks[first[s]], masks[second[s]], masks[g], rc_mask, nv_mask
            )
            scan_s += time.perf_counter() - scan_start
            if verdict.holds == found:
                disagreements.add((*describe(s, g), verdict.holds, found))

            if verdict.holds:
                true_classes += 1
                try:
                    # synthesize checks the derivation and its endpoint
                    synthesize(sigma, goal, verdict.witness)
                except Exception as exc:
                    derivation_failures.add((*describe(s, g), repr(exc)))
            else:
                false_classes += 1
                try:
                    team = verified_counterexample(verdict.plan)
                except Exception as exc:  # UndecidedError for a failed check
                    counterexample_failures.add((*describe(s, g), repr(exc)))
                else:
                    if team.value_count() > values:
                        bound_violations.add((*describe(s, g), team.value_count()))

        # modular sample: re-run the decision on unreduced instances and
        # compare with the verdict recorded for their class
        start_offset = (-g * n_sets) % SAMPLE_STRIDE
        for s in range(start_offset, n_sets, SAMPLE_STRIDE):
            sample_size += 1
            verdict = decide(sigmas[s], goal)
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
        scan_s=scan_s,
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
        k, values = search_bounds(sigma, goal)
        if remaining.get(k, 0) <= 0:
            continue
        if k >= 4 and len(schema_order(sigma, goal)[0]) > 2:
            continue
        remaining[k] -= 1
        compared += 1
        result = oracle_implies(sigma, goal, max_rows=k, max_values=values)
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
