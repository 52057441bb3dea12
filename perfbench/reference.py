"""Answers the package did not produce, used to check every operation.

Atoms are plain ``(left, right, degree)`` tuples of variable names and a
Fraction; teams are a schema plus rows of strings.  Nothing here imports
the package.

* ``holds`` is a reference verdict.  A premise of degree at most p
  implies the goal exactly when it is violated by the goal's canonical
  violating pair of rows: rows s and t whose cells are equal only where
  s.left[i] = t.right[i] forces it, closed under union-find.  That team
  maps into any pair of rows violating the goal, so a premise it violates
  is violated there too (sound); and when it satisfies the premise
  exactly it separates the two at every p < 1/2 (complete for a single
  premise).  Contradictory premises imply everything.  Implications that
  need two premises together are outside this test, so a reference NO is
  only used to refute a YES that the package based on one premise, which
  is the only kind of YES the package gives.
* ``separates`` verifies a counterexample team from scratch: every
  premise within its removal budget, the goal beyond its budget.  The
  minimum removal is a brute-force vertex cover of the row-conflict graph,
  which is fine for the few rows a counterexample has.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _classes(goal):
    """Class id of each (row, variable) cell of the canonical pair."""
    parent: dict = {}

    def find(cell):
        parent.setdefault(cell, cell)
        while parent[cell] != cell:
            parent[cell] = parent[parent[cell]]
            cell = parent[cell]
        return cell

    left, right, _ = goal
    for x, y in zip(left, right):
        parent[find((0, x))] = find((1, y))
    return find


def holds(sigma, goal) -> bool:
    """Reference verdict for sigma |= goal, goal degree below 1/2 or 1."""
    left, right, p = goal
    if p == 1:
        return True
    if any(a == b and q < 1 for a, b, q in sigma):
        return True
    if left == right:
        return False
    find = _classes(goal)
    rep = [{v: find((u, v)) for v in left + right} for u in (0, 1)]

    def cells(u, side):
        return tuple(rep[u].get(v, (u, v)) for v in side)

    for a, b, q in sigma:
        if q > p:
            continue
        for u, w in ((0, 1), (1, 0), (0, 0), (1, 1)):
            if cells(u, a) == cells(w, b):
                return True
    return False


def min_cover(edges) -> int:
    """Fewest nodes touching every edge (a self-loop forces its node), by
    trying subsets of the edges' nodes in order of size."""
    nodes = sorted({n for e in edges for n in e})
    for size in range(len(nodes) + 1):
        for chosen in combinations(nodes, size):
            picked = set(chosen)
            if all(i in picked or j in picked for i, j in edges):
                return size
    raise AssertionError("the full node set covers every edge")


def min_removal(columns, rows, atom) -> int:
    """Fewest rows whose removal leaves no row's left projection equal to
    any row's right projection; ``columns`` maps a variable to its index."""
    left, right, _ = atom
    li = [columns[v] for v in left]
    ri = [columns[v] for v in right]
    right_at: dict = {}
    for j, row in enumerate(rows):
        right_at.setdefault(tuple(row[i] for i in ri), []).append(j)
    return min_cover([
        (i, j)
        for i, row in enumerate(rows)
        for j in right_at.get(tuple(row[c] for c in li), ())
    ])


def within_budget(removed: int, degree: Fraction, size: int) -> bool:
    return removed * degree.denominator <= degree.numerator * size


def separates(schema, rows, sigma, goal) -> bool:
    """Whether the team satisfies every premise and falsifies the goal."""
    rows = list(rows)
    n = len(rows)
    if not n:
        return False
    columns = {v: i for i, v in enumerate(schema)}
    for atom in sigma:
        if not within_budget(min_removal(columns, rows, atom), atom[2], n):
            return False
    return not within_budget(min_removal(columns, rows, goal), goal[2], n)
