"""Stage times of the keystone bank build and scan, parent against change.

    python benchmarks/bench_sweep.py --parent OTHER/src [--repeats 7]

Each tree builds the keystone sweep's bank as the sweep does
(``TeamBank.build(3, 4, 12)``, then the 270 keystone satisfaction masks
in ``keystone_atoms`` order), and each stage is timed as a plain call, in
milliseconds, the fastest of its passes:

* ``enumerate_packed``: the canonical enumeration packed into arrays;
* ``conflict_words``: the 9 ``kernel.conflict_words`` calls, one per
  column pair, over the built bank's arrays;
* ``build``: the whole ``TeamBank.build``, ``enumerate_packed`` included;
* ``masks``: the 270 ``satisfaction_mask`` calls on a fresh
  ``TeamBank(...)`` over the built arrays (a bank caches its conflict
  words and masks, so each pass needs a new one), conflict words
  included;
* ``build_and_masks``: the two together, the sweep's set-up;
* ``masks.arity3``: as ``masks``, for the 2,457 atoms over a, b, c with
  tuples of length at most 3 and the keystone degrees, the atoms of
  ROADMAP item 6's arity-3 band;
* ``scan.keystone.yes`` and ``scan.keystone.no``:
  ``kernel.any_counterexample`` on the built bank, one call per instance
  of 2000 seeded ones drawn as ``keystone-slice`` draws them (a goal and
  0, 1 or 2 premises from ``sweep.keystone_atoms()``, 2 half the time), at
  the row and value masks of the instance's plan, split by the instance's
  verdict: a YES scan finds nothing and has no early exit, a NO scan stops
  at its first hit.  The decisions and plans are made before timing, and
  each case's calls are timed as one pass.

One untimed build plus its masks per tree gives the answers and three
facts: ``traced_peak_mb``, the ``tracemalloc`` peak of that build and
its masks (both trees share one process, so its resident set cannot be
split between them, and numpy's arrays are traced),
``arity3_traced_peak_mb``, the peak of the arity-3 masks on a fresh bank
over the built arrays, and ``calls``, how many times the build and its
270 masks called each of the two kernel functions.  The answers are
digests of the 270 masks, of the 2,457 arity-3 masks, of the
``enumerate_packed`` arrays after a
stable sort by row count (trees that list teams in generator order and
trees that list them in bank order digest alike), of the bank arrays
(cells, row counts, value counts, with dtypes and shapes) and of every
row and value mask the sweep can ask for, and the scan's found flags in
draw order; ``same_results`` is true when both trees produced
bit-identical ones.  A mask digests as its uint64 words, whether the tree
returns the array or a ``kernel.Mask`` holding it; ``all_mask`` digests
as its bits over the bank's teams, since trees before ``kernel.Mask`` set
its padding bits.
``--parent``, ``--change``, ``--repeats``, ``--out`` and
``paired_speedup`` work as in ``harness.compare_in_process``.  The output,
``benchmarks/BENCH_sweep.json`` by default, holds per-stage medians, every
repeat, the machine, Python, numpy, the kernel lane and the repeat count.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
from harness import compare_in_process

SEED = 20261018
KEYSTONE_SCANS = 2000


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = getattr(a, "words", a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def cases(ex) -> tuple[str, dict, dict]:
    """The digest of one tree's answers, its timed stages and its facts
    (``calls`` and ``traced_peak_mb``), as ``harness.compare_in_process``
    takes them."""
    kernel, sweep = ex.kernel, ex.sweep
    shape = (len(sweep.KEYSTONE_VARS), sweep.KEYSTONE_MAX_ROWS, sweep.KEYSTONE_MAX_VALUES)
    col = {v: i for i, v in enumerate(sweep.KEYSTONE_VARS)}
    keystone = sweep.keystone_atoms()
    atoms = [([col[v] for v in a.left], [col[v] for v in a.right], a.degree)
             for a in keystone]
    pairs = sorted({pair for left, right, _ in atoms for pair in zip(left, right)})
    tuples = [t for arity in (1, 2, 3) for t in product(range(shape[0]), repeat=arity)]
    arity3 = [(left, right, degree) for left in tuples for right in tuples
              if len(left) == len(right) for degree in sweep.KEYSTONE_DEGREES]

    def masks(bank, atoms=atoms):
        return [bank.satisfaction_mask(*atom) for atom in atoms]

    calls = Counter()
    originals = kernel.enumerate_packed, kernel.conflict_words

    def counted(fn):
        def call(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return call

    kernel.enumerate_packed, kernel.conflict_words = map(counted, originals)
    tracemalloc.start()
    try:
        bank = sweep.TeamBank.build(*shape)
        sat = masks(bank)
        answers = [_digest(sat)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        kernel.enumerate_packed, kernel.conflict_words = originals

    arrays = (bank.cells, bank.n_rows, bank.n_values)
    tracemalloc.start()
    try:
        answers.append(_digest(masks(sweep.TeamBank(*shape, *arrays), arity3)))
        _, arity3_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    packed = kernel.enumerate_packed(*shape)
    order = np.argsort(packed[1], kind="stable")
    ones = bank.all_mask()
    answers += [
        _digest(a[order] for a in packed),
        _digest(arrays),
        _digest(
            [bank.row_mask(k) for k in range(bank.max_rows + 1)]
            + [bank.value_mask(d) for d in range(bank.max_values + 1)]
            + [np.unpackbits(getattr(ones, "words", ones).view(np.uint8),
                             bitorder="little", count=bank.size)]
        ),
    ]

    rng = random.Random(SEED)
    scans, verdicts = [], []
    for _ in range(KEYSTONE_SCANS):
        picked = rng.sample(range(len(atoms)), rng.choice((0, 1, 2, 2)))
        g = rng.randrange(len(atoms))
        sigma = tuple(keystone[i] for i in picked)
        verdict = ex.decision.decide(sigma, keystone[g])
        plan = verdict.plan or ex.counterexample.plan(sigma, keystone[g])
        verdicts.append(verdict.holds)
        scans.append((
            sat[picked[0]] if picked else ones,
            sat[picked[1]] if len(picked) > 1 else ones,
            sat[g],
            bank.row_mask(plan.k),
            bank.value_mask(ex.counterexample.domain_size_bound(plan)),
        ))
    answers.append(repr([kernel.any_counterexample(*scan) for scan in scans]))
    yes = [scan for scan, holds in zip(scans, verdicts) if holds]
    no = [scan for scan, holds in zip(scans, verdicts) if not holds]

    timed = {
        "enumerate_packed": [lambda: kernel.enumerate_packed(*shape)],
        "conflict_words": [
            lambda: [kernel.conflict_words(*arrays[:2], shape[0], *pair) for pair in pairs]
        ],
        "build": [lambda: sweep.TeamBank.build(*shape)],
        "masks": [lambda: masks(sweep.TeamBank(*shape, *arrays))],
        "build_and_masks": [lambda: masks(sweep.TeamBank.build(*shape))],
        "masks.arity3": [lambda: masks(sweep.TeamBank(*shape, *arrays), arity3)],
        "scan.keystone.yes": [lambda: [kernel.any_counterexample(*scan) for scan in yes]],
        "scan.keystone.no": [lambda: [kernel.any_counterexample(*scan) for scan in no]],
    }
    digest = hashlib.sha256(" ".join(answers).encode()).hexdigest()
    facts = {
        "calls": dict(sorted(calls.items())),
        "traced_peak_mb": round(peak / 2**20, 1),
        "arity3_traced_peak_mb": round(arity3_peak / 2**20, 1),
    }
    return digest, timed, facts


def main(argv=None) -> int:
    return compare_in_process(
        "sweep", cases, __doc__.split("\n\n")[0], argv, unit=("milliseconds per call", 1e3)
    )


if __name__ == "__main__":
    sys.exit(main())
