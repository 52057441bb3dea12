"""Bounded enumeration oracle: spaces, canonical pruning, and verdicts."""

import random
from itertools import permutations

import pytest

from exclusion import CapacityError, atom, decide, oracle_implies, satisfies
from exclusion.counterexample import domain_size_bound, plan as cx_plan
from exclusion.oracle import (
    default_bounds,
    enumerate_row_sets,
    enumerate_teams,
    full_space_size,
)
from exclusion.semantics import satisfies_all


class TestSpaceCounts:
    def test_full_space_sizes(self):
        assert full_space_size(1, 1, 2) == 3
        assert full_space_size(1, 2, 2) == 4
        assert full_space_size(2, 1, 2) == 5

    def test_full_enumeration_matches_size(self):
        for n_vars, max_rows, max_values in [(1, 1, 2), (1, 2, 2), (2, 1, 2)]:
            schema = tuple("xyz"[:n_vars])
            teams = list(enumerate_teams(schema, max_rows, max_values))
            assert len(teams) == full_space_size(n_vars, max_rows, max_values)
            # the empty team is always part of the space
            assert sum(1 for t in teams if t.is_empty()) == 1

    def test_canonical_counts(self):
        expected = {(1, 4, 4): 5, (2, 4, 8): 1044, (3, 3, 12): 12030}
        for (n_vars, max_rows, max_values), count in expected.items():
            rows = enumerate_row_sets(n_vars, max_rows, max_values, canonical=True)
            assert sum(1 for _ in rows) == count

    def test_canonical_never_exceeds_full(self):
        full = sum(1 for _ in enumerate_row_sets(2, 2, 3))
        canonical = sum(1 for _ in enumerate_row_sets(2, 2, 3, canonical=True))
        assert canonical < full == full_space_size(2, 2, 3)


def first_occurrence_labels(rows):
    """Row-major relabeling by first occurrence, the canonical value order."""
    mapping = {}
    for row in rows:
        for cell in row:
            if cell not in mapping:
                mapping[cell] = len(mapping) + 1
    return mapping


class TestCanonicalCoverage:
    def test_every_renaming_class_has_a_canonical_member(self):
        rng = random.Random(3)
        canonical = set(enumerate_row_sets(2, 3, 6, canonical=True))
        for _ in range(200):
            n_rows = rng.randrange(0, 4)
            rows = {
                tuple(rng.randrange(1, 7) for _ in range(2)) for _ in range(n_rows)
            }
            values = sorted({c for r in rows for c in r})
            found = False
            for perm in permutations(range(1, len(values) + 1)):
                relabel = dict(zip(values, perm))
                image = tuple(
                    sorted(tuple(relabel[c] for c in row) for row in rows)
                )
                if image in canonical:
                    found = True
                    break
            assert found, rows

    def test_canonical_forms_are_row_major_numbered(self):
        for rows in enumerate_row_sets(2, 3, 5, canonical=True):
            labels = first_occurrence_labels(rows)
            assert all(labels[c] == c for r in rows for c in r)


class TestBudget:
    def test_full_mode_rejects_oversized_space_upfront(self):
        with pytest.raises(CapacityError):
            list(enumerate_row_sets(3, 4, 12, budget=1000))

    def test_canonical_mode_stops_mid_stream(self):
        gen = enumerate_row_sets(2, 3, 6, canonical=True, budget=50)
        with pytest.raises(CapacityError):
            for _ in gen:
                pass

    def test_oracle_propagates_capacity(self):
        # a holding implication forces the oracle to exhaust the space, so
        # a tiny budget must surface as a capacity error, never a verdict
        with pytest.raises(CapacityError):
            oracle_implies([atom("x", "y")], atom("x", "y"), 4, 12, budget=10)

    def test_early_counterexample_beats_the_budget(self):
        result = oracle_implies([], atom("x", "y"), 4, 12, budget=10)
        assert not result.implied
        assert result.teams_checked <= 10


class TestOracleVerdicts:
    def test_refutes_empty_sigma(self):
        result = oracle_implies([], atom("x", "y"), 2, 3)
        assert not result.implied
        assert not result
        team = result.counterexample
        assert team is not None
        assert satisfies_all(team, [])
        assert not satisfies(team, atom("x", "y"))

    def test_membership_implied(self):
        result = oracle_implies([atom("x", "y")], atom("x", "y"), 2, 3)
        assert result.implied
        assert result.counterexample is None
        assert result.teams_checked > 0

    def test_empty_space_implies_everything(self):
        result = oracle_implies([], atom("x", "y"), 0, 3)
        assert result.implied
        assert result.teams_checked == 1

    def test_degree_comparison_is_exact(self):
        # a 3-row team with one removal sits exactly at degree 1/3
        sigma = [atom("x", "y", "1/3")]
        assert oracle_implies(sigma, atom("x", "y", "1/3"), 3, 9).implied
        assert not oracle_implies(sigma, atom("x", "y", "1/4"), 3, 9).implied

    def test_full_and_canonical_agree(self):
        rng = random.Random(9)
        pool = ["x", "y"]
        degrees = ["0", "1/4", "1/3"]

        def random_atom():
            arity = rng.randrange(1, 3)
            return atom(
                tuple(rng.choice(pool) for _ in range(arity)),
                tuple(rng.choice(pool) for _ in range(arity)),
                rng.choice(degrees),
            )

        for _ in range(25):
            sigma = [random_atom() for _ in range(rng.randrange(0, 2))]
            goal = random_atom()
            fast = oracle_implies(sigma, goal, 2, 4, canonical=True)
            slow = oracle_implies(sigma, goal, 2, 4, canonical=False)
            assert fast.implied == slow.implied


class TestDefaultBounds:
    def test_planned_bounds(self):
        sigma = [atom("x", "y", "1/3")]
        goal = atom("x", "y")
        rows, values = default_bounds(sigma, goal)
        plan = cx_plan(sigma, goal)
        assert rows == plan.k == 3
        assert values == domain_size_bound(plan)

    def test_bounds_complete_for_simple_false_instances(self):
        # within the planned bounds the oracle must find a counterexample
        # whenever the decision is negative
        cases = [
            ([], atom("x", "y")),
            ([atom("x", "y", "1/3")], atom("x", "y")),
            ([atom("u", "v")], atom("x", "x")),
            ([atom("x", "u")], atom("x", "y")),
        ]
        for sigma, goal in cases:
            verdict = decide(sigma, goal)
            assert not verdict.holds
            rows, values = default_bounds(sigma, goal)
            result = oracle_implies(sigma, goal, rows, values)
            assert not result.implied, (sigma, goal)
