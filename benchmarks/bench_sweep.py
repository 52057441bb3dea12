"""Stage times of the keystone bank build, parent against change.

    python benchmarks/bench_sweep.py --parent OTHER/src [--repeats 7]

Each interpreter builds the keystone sweep's bank once, exactly as the
sweep does (``TeamBank.build(3, 4, 12)``, then the 270 keystone
satisfaction masks in ``keystone_atoms`` order), and records, in seconds:

* ``enumerate_packed``: the canonical enumeration packed into arrays;
* ``conflict_words``: every ``kernel.conflict_words`` call the masks make,
  summed (``calls`` records how many there were);
* ``build``: the whole ``TeamBank.build``, ``enumerate_packed`` included;
* ``masks``: the 270 ``satisfaction_mask`` calls, conflict words included;
* ``build_and_masks``: the two together, the sweep's set-up.

``peak_rss_mb`` is the interpreter's peak resident set after the build.
The answers are digests of the 270 masks, of the ``enumerate_packed``
arrays after a stable sort by row count (trees that list teams in
generator order and trees that list them in bank order digest alike), of
the bank arrays (cells, row counts, value counts, with dtypes and shapes)
and of every row and value mask the sweep can ask for; ``same_results``
is true when both trees produced bit-identical ones.  ``--parent``, ``--change``, ``--repeats`` and
``--out`` work as in ``bench_certify.compare``.  The output,
``benchmarks/BENCH_sweep.json`` by default, holds per-stage medians, every
repeat, the machine, Python, numpy, the kernel lane and the repeat count.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import numpy as np
from bench_certify import compare


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def child(src: str) -> None:
    sys.path.insert(0, src)
    import exclusion.kernel
    import exclusion.sweep

    kernel, sweep = exclusion.kernel, exclusion.sweep
    spent = {"enumerate_packed": 0.0, "conflict_words": 0.0}
    calls = {"enumerate_packed": 0, "conflict_words": 0}
    packed = []

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            spent[name] += time.perf_counter() - start
            calls[name] += 1
            if name == "enumerate_packed":
                order = np.argsort(result[1], kind="stable")
                packed.append(_digest(a[order] for a in result))
            return result

        return wrapper

    kernel.enumerate_packed = timed("enumerate_packed", kernel.enumerate_packed)
    kernel.conflict_words = timed("conflict_words", kernel.conflict_words)

    col = {v: i for i, v in enumerate(sweep.KEYSTONE_VARS)}
    atoms = sweep.keystone_atoms()
    start = time.perf_counter()
    bank = sweep.TeamBank.build(
        len(sweep.KEYSTONE_VARS), sweep.KEYSTONE_MAX_ROWS, sweep.KEYSTONE_MAX_VALUES
    )
    built = time.perf_counter()
    masks = [
        bank.satisfaction_mask([col[v] for v in a.left], [col[v] for v in a.right], a.degree)
        for a in atoms
    ]
    done = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    answers = {
        "masks": [_digest(masks)],
        "enumerate_packed": packed,
        "bank": [_digest((bank.cells, bank.n_rows, bank.n_values))],
        "row_value_masks": [
            _digest(
                [bank.row_mask(k) for k in range(bank.max_rows + 1)]
                + [bank.value_mask(d) for d in range(bank.max_values + 1)]
                + [bank.all_mask()]
            )
        ],
    }
    print(json.dumps({
        "lane": kernel.IMPLEMENTATION,
        "digest": hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest(),
        "answers": answers,
        "peak_rss_mb": round(peak_mb, 1),
        "calls": calls,
        "seconds_per_call": {
            "enumerate_packed": spent["enumerate_packed"],
            "conflict_words": spent["conflict_words"],
            "build": built - start,
            "masks": done - built,
            "build_and_masks": done - start,
        },
    }))


def main(argv=None) -> int:
    return compare(
        "sweep", __file__, child, __doc__.split("\n\n")[0], argv, unit=("seconds", 1.0)
    )


if __name__ == "__main__":
    sys.exit(main())
