"""Brute-force semantic implication over bounded team spaces.

The oracle enumerates teams within given row and value bounds and checks
the implication directly against the semantics.  It is the slow,
trustworthy reference the fast decision procedure is compared against.

It enumerates one representative per value-renaming class, lazily, so a
search that finds a separating team stops early.  Satisfaction of
exclusion atoms only compares values for equality, so it is invariant
under renaming and checking representatives suffices.  A representative
is a team whose rows, sorted, read off a restricted growth string: cells
scanned row-major introduce values 1, 2, 3, ... in order.  Every team
can be relabeled into this shape: among all relabelings, the one with
the lexicographically least sorted row sequence is in it (if a scan
introduced a value out of order, swapping it with the expected label
would shrink the sequence).  The sweep's packed bank
(`kernel.enumerate_packed`) holds the same teams, sorted by row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DEFAULT_BUDGET, CapacityError
from .model import Atom, Team, atom_columns, schema_order
from .semantics import columns_of, min_removal_indexed, within_budget

IntRow = tuple[int, ...]
RowSet = tuple[IntRow, ...]


def _canonical_sets(
    n_vars: int, max_rows: int, max_values: int, budget: int
) -> Iterator[RowSet]:
    yielded = 0

    def guard() -> None:
        nonlocal yielded
        yielded += 1
        if yielded > budget:
            raise CapacityError(
                f"canonical enumeration passed the budget of {budget} teams"
            )

    def rows_after(last: IntRow | None, m0: int) -> Iterator[tuple[IntRow, int]]:
        # rows lexicographically greater than last whose cells extend the
        # restricted growth string with running maximum m0
        def rec(
            i: int, prefix: list[int], m: int, tight: bool
        ) -> Iterator[tuple[IntRow, int]]:
            if i == n_vars:
                if not tight:
                    yield tuple(prefix), m
                return
            for c in range(1, min(m + 1, max_values) + 1):
                if tight and c < last[i]:
                    continue
                prefix.append(c)
                yield from rec(i + 1, prefix, max(m, c), tight and c == last[i])
                prefix.pop()

        return rec(0, [], m0, last is not None)

    def extend(rows: RowSet, m: int) -> Iterator[RowSet]:
        for row, m2 in rows_after(rows[-1] if rows else None, m):
            team = rows + (row,)
            guard()
            yield team
            if len(team) < max_rows:
                yield from extend(team, m2)

    guard()
    yield ()
    if max_rows > 0:
        yield from extend((), 0)


def enumerate_row_sets(
    n_vars: int, max_rows: int, max_values: int, budget: int = DEFAULT_BUDGET
) -> Iterator[RowSet]:
    """Canonical teams as sorted tuples of distinct int rows, lex order
    depth first: each team is followed by its extensions."""
    if n_vars < 0 or max_rows < 0 or max_values < 0:
        raise ValueError("bounds must be nonnegative")
    return _canonical_sets(n_vars, max_rows, max_values, budget)


@dataclass(frozen=True)
class OracleResult:
    """Verdict of a bounded semantic check."""

    implied: bool
    counterexample: Team | None
    teams_checked: int

    def __bool__(self) -> bool:
        return self.implied


def oracle_implies(
    sigma: Iterable[Atom],
    goal: Atom,
    max_rows: int,
    max_values: int,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Search the bounded space for a team separating sigma from the goal."""
    sigma = tuple(sigma)
    schema, _ = schema_order(sigma, goal)
    constraints = [(*atom_columns(schema, a), a.degree) for a in sigma]
    goal_left, goal_right = atom_columns(schema, goal)
    p = goal.degree

    checked = 0
    for rows in enumerate_row_sets(len(schema), max_rows, max_values, budget):
        checked += 1
        size = len(rows)
        columns = columns_of(rows, len(schema))
        satisfied = True
        for left_idx, right_idx, q in constraints:
            if not within_budget(min_removal_indexed(columns, left_idx, right_idx), q, size):
                satisfied = False
                break
        if not satisfied:
            continue
        if not within_budget(min_removal_indexed(columns, goal_left, goal_right), p, size):
            team = Team(
                schema, frozenset(tuple(str(c) for c in row) for row in rows)
            )
            return OracleResult(False, team, checked)
    return OracleResult(True, None, checked)
