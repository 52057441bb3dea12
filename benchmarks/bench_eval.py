"""Per-call time of the removal search and of ``excl eval``, parent against change.

    python benchmarks/bench_eval.py --parent OTHER/src [--repeats 7]

Times, per call, on seeded CSV tables of 1k, 10k and 100k rows with 4, 15
and 24 conflicting values at arity 1 and 2:

* ``semantics.min_removal`` on the parsed team;
* ``cli.main(["eval", path, atom])``, the whole command: reading the CSV,
  parsing the atom, the search and printing (to a discarded buffer).

The conflicting values fall into independent components of one to three
values, each value on both sides of its component's rows, and every other
row takes values that occur on one side only; one row per table conflicts
with itself.  At arity 2 the second column comes from a three-value pool,
so single columns collide across the sides while whole tuples do not.
The generator is this script's own, seeded, and not the benchmark's.

The dense cases, ``dense.200x50.a1`` and ``.a2``, are five tables each of
200 rows whose first columns draw from 50 values, every value on both
sides (at arity 1, a random 2-column table).  Every row's first value is
shared, so the search's first-position filter skips no row there.  Each
holds one component of 50 to 100 choices, past ``CHOICE_CAP``, so the
search refuses it; ``answered_share`` records the share answered per case.

A refused search counts as an answer: each tree reports, per case, the
removal counts of its tables, or ``"CapacityError"`` where it refused one.
The JSON keeps these under ``answers`` and says, as
``same_where_both_answer``, whether the trees agree on every table both
answered; ``same_results`` compares whole digests, so it reads false when
one tree refuses a table the other answers.

``--parent``, ``--change``, ``--repeats``, ``--out`` and
``paired_speedup`` work as in ``harness.compare_in_process``: both
trees are imported into one interpreter, each builds the same seeded
tables, and each case is timed on one tree and at once on the other,
alternating which goes first.  Each tree writes its tables to a CSV
directory of its own that lives until the interpreter exits, since the
timed ``eval`` calls read the files in every repeat.  The output,
``benchmarks/BENCH_eval.json`` by default, holds per-case medians, every
repeat, the machine, Python, numpy, the kernel lane and the repeat count.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

from harness import compare_in_process

SEED = 20261019
ROWS = (1000, 10_000, 100_000)
CONFLICTS = (4, 15, 24)
ARITIES = (1, 2)
TABLES = {1000: 3, 10_000: 2, 100_000: 1}  # tables per case
PAD = ("d0", "d1", "d2")
DENSE = (200, 50)  # rows, values of the dense tables
DENSE_TABLES = 5


def _table(rng, n_rows, n_conflicts, arity):
    """(csv_text, atom_text) for one table."""

    def value(tag, i):
        return (f"{tag}{i}",) + tuple(rng.choice(PAD) for _ in range(arity - 1))

    itself = value("s", 0)
    rows = [(itself, itself)]  # conflicts with itself: removed outright
    fresh = made = 0
    while made < n_conflicts:
        values = [value("c", made + i) for i in range(min(rng.randint(1, 3), n_conflicts - made))]
        made += len(values)
        for v in values:
            fresh += 1
            rows += [(v, value("r", fresh)), (value("l", fresh), v)]
        for _ in range(rng.randint(0, 3)):  # links within the component
            x = rng.choice(values)
            y = rng.choice([v for v in values if v != x] or [value("r", fresh)])
            if (x, y) not in rows:
                rows.append((x, y))
    for i in range(fresh + 1, fresh + 1 + max(0, n_rows - len(rows))):
        rows.append((value("l", i), value("r", i)))
    return _csv(rows, arity)


def _dense_table(rng, n_rows, n_values, arity):
    """(csv_text, atom_text) for a table whose first columns draw from one
    pool of ``n_values`` values, each value on both sides, so every row's
    first value is shared and no row can be skipped before projection."""
    pool = [f"c{i}" for i in range(n_values)]
    firsts = [(pool[i % n_values], rng.choice(pool)) for i in range(n_rows)]
    for i, v in enumerate(rng.sample(pool, n_values)):
        firsts[i] = (firsts[i][0], v)
    rows = {
        ((x,) + tuple(rng.choice(PAD) for _ in range(arity - 1)),
         (y,) + tuple(rng.choice(PAD) for _ in range(arity - 1)))
        for x, y in firsts
    }
    return _csv(sorted(rows), arity)


def _csv(rows, arity):
    left = [f"x{i}" for i in range(arity)]
    right = [f"y{i}" for i in range(arity)]
    lines = [",".join(["k"] + left + right)]
    lines += [",".join((str(k),) + x + y) for k, (x, y) in enumerate(rows)]
    return "\n".join(lines) + "\n", f"excl({' '.join(left)} ; {' '.join(right)})"


def _cases():
    """(case, table maker, its arguments, table count): the sparse grid,
    then the dense tables."""
    for n_rows in ROWS:
        for n_conflicts in CONFLICTS:
            for arity in ARITIES:
                yield (f"{n_rows}x{n_conflicts}.a{arity}", _table,
                       (n_rows, n_conflicts, arity), TABLES[n_rows])
    n_rows, n_values = DENSE
    for arity in ARITIES:
        yield (f"dense.{n_rows}x{n_values}.a{arity}", _dense_table,
               (n_rows, n_values, arity), DENSE_TABLES)


def cases(ex) -> tuple[str, dict, dict]:
    """The digest of one tree's answers, its timed cases and its facts
    (the ``answers``), as ``harness.compare_in_process`` takes them."""
    CapacityError = ex.errors.CapacityError
    rng = random.Random(SEED)
    work = Path(tempfile.mkdtemp(prefix="bench_eval."))
    atexit.register(shutil.rmtree, work, ignore_errors=True)
    timed, answers = {}, {}

    def removal(team, atom):
        try:
            return ex.semantics.min_removal(team, atom)
        except CapacityError:
            return "CapacityError"

    def run_eval(path, atom_text):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return ex.cli.main(["eval", str(path), atom_text])

    for case, make, args, count in _cases():
        tables = []
        for k in range(count):
            text, atom_text = make(rng, *args)
            path = work / f"{case}.{k}.csv"
            path.write_text(text, encoding="utf-8")
            team, _ = ex.parsing.parse_team_csv(text)
            tables.append((path, atom_text, team, ex.parsing.parse_atom(atom_text)))
        answers[case] = [removal(team, atom) for _, _, team, atom in tables]
        timed[f"min_removal.{case}"] = [lambda t=t, a=a: removal(t, a) for _, _, t, a in tables]
        timed[f"eval.{case}"] = [lambda p=p, a=a: run_eval(p, a) for p, a, _, _ in tables]

    digest = hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()
    return digest, timed, {"answers": answers}


def main(argv=None) -> int:
    return compare_in_process("eval", cases, __doc__.split("\n\n")[0], argv)


if __name__ == "__main__":
    sys.exit(main())
