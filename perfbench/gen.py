"""Seeded input generators with answers planted by construction.

Everything here is independent of the package: atoms are
``(left, right, degree)`` tuples rendered to atom text by ``atom_text``,
and tables are CSV text whose ``min_removal`` the generator computes itself
by brute force over each independent conflict component.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from reference import min_cover

DEGREES = (Fraction(0), Fraction(1, 4), Fraction(1, 3))


def atom_text(left, right, degree) -> str:
    mark = "" if degree == 0 else f"[{degree}]"
    return f"excl{mark}({' '.join(left)} ; {' '.join(right)})"


def random_atom(rng, names, arity):
    left = tuple(rng.choice(names) for _ in range(arity))
    right = tuple(rng.choice(names) for _ in range(arity))
    return left, right, rng.choice(DEGREES)


def derived_goal(rng, premise, names, max_arity):
    """A goal the premise implies: shuffle its pairs, append pairs, maybe
    swap the sides, raise the degree.  Each step is sound, so the
    implication holds by construction."""
    left, right, degree = premise
    pairs = list(zip(left, right))
    rng.shuffle(pairs)
    for _ in range(rng.randint(0, max(0, max_arity - len(pairs)))):
        pairs.insert(rng.randint(0, len(pairs)), (rng.choice(names), rng.choice(names)))
    left = tuple(p[0] for p in pairs)
    right = tuple(p[1] for p in pairs)
    if rng.random() < 0.5:
        left, right = right, left
    return left, right, rng.choice([d for d in DEGREES if d >= degree])


def instance(rng, names, n_premises, arities, derived):
    """(sigma, goal) for one implication query.

    `arities` lists the arities premises and random goals draw from; a
    derived goal keeps its premise's arity plus appended pairs up to the
    largest listed arity.
    """
    sigma = [random_atom(rng, names, rng.choice(arities)) for _ in range(n_premises)]
    if derived and sigma:
        return sigma, derived_goal(rng, rng.choice(sigma), names, max(arities))
    return sigma, random_atom(rng, names, rng.choice(arities))


def table(rng, n_rows: int, n_conflicts: int, arity: int):
    """(csv_text, atom, planted_min_removal, rows) for one table.

    Conflicting values come in independent components of one to three
    values with two to nine rows each; every other row takes values that
    occur on one side only.  The planted answer sums, over components, a
    brute-force minimum cover of the component's row-conflict graph.
    """
    left = [f"x{i}" for i in range(arity)]
    right = [f"y{i}" for i in range(arity)]
    pad = [f"d{j}" for j in range(3)]

    def value(tag, i):
        # second coordinates come from a tiny shared pool, so single
        # columns collide across the sides while whole tuples do not
        return (f"{tag}{i}",) + tuple(rng.choice(pad) for _ in range(arity - 1))

    rows = []
    planted = 0
    fresh = 0
    made = 0
    while made < n_conflicts:
        size = min(rng.randint(1, 3), n_conflicts - made)
        values = [value("c", made + i) for i in range(size)]
        made += size
        comp = []
        for v in values:  # each value on both sides at least once
            fresh += 1
            comp.append((v, value("r", fresh)))
            comp.append((value("l", fresh), v))
        for _ in range(rng.randint(0, 3)):
            # no row takes one value on both sides: such a row is removed
            # outright and its value drops out of the search, which would
            # make the search size, and so the timing, depend on the seed
            fresh += 1
            x = rng.choice(values + [value("l", fresh)])
            y = rng.choice([v for v in values if v != x] + [value("r", fresh)])
            if (x, y) not in comp:
                comp.append((x, y))
        edges = [
            (i, j)
            for i, (xi, _) in enumerate(comp)
            for j, (_, yj) in enumerate(comp)
            if xi == yj
        ]
        planted += min_cover(edges)
        rows.extend(comp)
    # one-sided rows; their order is irrelevant, a team is a set of rows
    extra = max(0, n_rows - len(rows))
    cells = iter(rng.choices(pad, k=2 * (arity - 1) * extra))
    for i in range(fresh + 1, fresh + 1 + extra):
        rows.append((
            (f"l{i}",) + tuple(islice(cells, arity - 1)),
            (f"r{i}",) + tuple(islice(cells, arity - 1)),
        ))
    lines = [",".join(["k"] + left + right)]
    lines += [",".join((str(k),) + x + y) for k, (x, y) in enumerate(rows)]
    atom = (tuple(left), tuple(right), rng.choice(DEGREES))
    return "\n".join(lines) + "\n", atom, planted, len(rows)
