"""Per-call time of the removal search and of ``excl eval``, parent against change.

    python benchmarks/bench_eval.py --parent OTHER/src [--repeats 7]

Times, per call, on seeded CSV tables of 1k, 10k and 100k rows with 4, 15
and 24 conflicting values at arity 1 and 2:

* ``parsing.read_team_csv`` on the table's file, the CSV reader alone
  (``read.*``, the sparse grid only), its result freed in the pass;
* ``semantics.min_removal`` on the parsed team;
* ``cli.main(["eval", path, atom])``, the whole command: reading the CSV,
  parsing the atom, the search and printing (to a discarded buffer).

The sparse tables come from ``perfbench/gen.py``'s ``table``, the
generator of the ``eval-tables`` workload, with its atom and degree.  The
conflicting values fall into independent components of one to three
values, each value on both sides of its component's rows, and every other
row takes values that occur on one side only.  At arity 2 the second
column comes from a three-value pool, so single columns collide across
the sides while whole tuples do not.  ``gen`` plants each table's
``min_removal`` by brute force over its components; each tree records, as
``matches_planted``, whether its every sparse answer equals the planted
one.

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen

SEED = 20261019
ROWS = (1000, 10_000, 100_000)
CONFLICTS = (4, 15, 24)
ARITIES = (1, 2)
TABLES = {1000: 3, 10_000: 2, 100_000: 1}  # tables per case
PAD = ("d0", "d1", "d2")
DENSE = (200, 50)  # rows, values of the dense tables
DENSE_TABLES = 5


def _dense_table(rng, n_rows, n_values, arity):
    """(csv_text, atom, None, rows), as ``gen.table`` returns it but with
    no planted answer, for a table whose first columns draw from one
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
    return (*_csv(sorted(rows), arity), None, len(rows))


def _csv(rows, arity):
    left = [f"x{i}" for i in range(arity)]
    right = [f"y{i}" for i in range(arity)]
    lines = [",".join(["k"] + left + right)]
    lines += [",".join((str(k),) + x + y) for k, (x, y) in enumerate(rows)]
    return "\n".join(lines) + "\n", (tuple(left), tuple(right), 0)


def _cases():
    """(case, table maker, its arguments, table count): the sparse grid,
    then the dense tables."""
    for n_rows in ROWS:
        for n_conflicts in CONFLICTS:
            for arity in ARITIES:
                yield (f"{n_rows}x{n_conflicts}.a{arity}", gen.table,
                       (n_rows, n_conflicts, arity), TABLES[n_rows])
    n_rows, n_values = DENSE
    for arity in ARITIES:
        yield (f"dense.{n_rows}x{n_values}.a{arity}", _dense_table,
               (n_rows, n_values, arity), DENSE_TABLES)


def cases(ex) -> tuple[str, dict, dict]:
    """The digest of one tree's answers, its timed cases and its facts
    (the ``answers`` and ``matches_planted``), as
    ``harness.compare_in_process`` takes them."""
    CapacityError = ex.errors.CapacityError
    rng = random.Random(SEED)
    work = Path(tempfile.mkdtemp(prefix="bench_eval."))
    atexit.register(shutil.rmtree, work, ignore_errors=True)
    timed, answers, matches_planted = {}, {}, True

    def removal(team, atom):
        try:
            return ex.semantics.min_removal(team, atom)
        except CapacityError:
            return "CapacityError"

    def read(path):
        ex.parsing.read_team_csv(path)

    def run_eval(path, atom_text):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return ex.cli.main(["eval", str(path), atom_text])

    for case, make, args, count in _cases():
        tables = []
        for k in range(count):
            text, atom, planted, _ = make(rng, *args)
            atom_text = gen.atom_text(*atom)
            path = work / f"{case}.{k}.csv"
            path.write_text(text, encoding="utf-8")
            team, _ = ex.parsing.parse_team_csv(text)
            tables.append((path, atom_text, team, ex.parsing.parse_atom(atom_text), planted))
        answers[case] = [removal(team, atom) for _, _, team, atom, _ in tables]
        if not case.startswith("dense."):
            matches_planted &= answers[case] == [planted for *_, planted in tables]
            timed[f"read.{case}"] = [lambda p=p: read(p) for p, *_ in tables]
        timed[f"min_removal.{case}"] = [lambda t=t, a=a: removal(t, a) for _, _, t, a, _ in tables]
        timed[f"eval.{case}"] = [lambda p=p, a=a: run_eval(p, a) for p, a, *_ in tables]

    digest = hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()
    return digest, timed, {"answers": answers, "matches_planted": matches_planted}


def main(argv=None) -> int:
    return compare_in_process("eval", cases, __doc__.split("\n\n")[0], argv)


if __name__ == "__main__":
    sys.exit(main())
