"""Pareto dominance and constraint-domination."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.moo.dominance import (
    compare,
    dominates,
    non_dominated,
    non_dominated_objectives_mask,
    pareto_dominates,
)
from repro.moo.solution import FloatSolution


def sol(objectives, violation=0.0):
    s = FloatSolution(np.zeros(2), len(objectives))
    s.objectives = np.asarray(objectives, dtype=float)
    s.constraint_violation = violation
    return s


class TestParetoDominates:
    def test_strict_dominance(self):
        assert pareto_dominates([1, 1], [2, 2])
        assert pareto_dominates([1, 2], [2, 2])

    def test_no_self_dominance(self):
        assert not pareto_dominates([1, 1], [1, 1])

    def test_incomparable(self):
        assert not pareto_dominates([1, 3], [2, 2])
        assert not pareto_dominates([2, 2], [1, 3])

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=4),
    )
    def test_irreflexive(self, v):
        assert not pareto_dominates(v, v)


objective_vec = st.lists(
    st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3
)

#: Small integer grids make ties common; NaN appears in some slots.
nan_objective_vec = st.lists(
    st.sampled_from([-1.0, 0.0, 1.0, 2.0, np.nan]), min_size=3, max_size=3
)


class TestCompare:
    def test_feasible_beats_infeasible(self):
        assert compare(sol([9, 9, 9]), sol([0, 0, 0], violation=1.0)) == -1

    def test_lower_violation_wins(self):
        assert compare(sol([1, 1, 1], 0.5), sol([0, 0, 0], 2.0)) == -1
        assert compare(sol([1, 1, 1], 2.0), sol([0, 0, 0], 0.5)) == 1

    def test_equal_violation_is_tie(self):
        assert compare(sol([1, 1, 1], 1.0), sol([0, 0, 0], 1.0)) == 0

    def test_both_feasible_pareto(self):
        assert compare(sol([1, 1, 1]), sol([2, 2, 2])) == -1
        assert compare(sol([2, 2, 2]), sol([1, 1, 1])) == 1
        assert compare(sol([1, 2, 1]), sol([2, 1, 1])) == 0

    def test_equal_vectors_tie(self):
        assert compare(sol([1, 2, 3]), sol([1, 2, 3])) == 0
        assert compare(sol([0.0, 1, 1]), sol([-0.0, 1, 1])) == 0

    @pytest.mark.parametrize("slot", range(3))
    def test_nan_never_dominates(self, slot):
        worse = [5.0, 5.0, 5.0]
        with_nan = [0.0, 0.0, 0.0]
        with_nan[slot] = np.nan
        assert compare(sol(with_nan), sol(worse)) == 0
        assert compare(sol(worse), sol(with_nan)) == 0
        assert compare(sol(with_nan), sol(with_nan)) == 0
        assert not pareto_dominates(with_nan, worse)
        assert not pareto_dominates(np.array(worse), np.array(with_nan))

    @given(nan_objective_vec, nan_objective_vec)
    def test_matches_the_numpy_reference(self, a, b):
        """The float loop is the numpy all/any formula, NaN included."""
        x, y = np.array(a), np.array(b)
        reference = bool(np.all(x <= y) and np.any(x < y))
        assert pareto_dominates(x, y) is reference
        expected = -1 if reference else (1 if np.all(y <= x) and np.any(y < x) else 0)
        assert compare(sol(a), sol(b)) == expected

    @given(objective_vec, objective_vec)
    def test_antisymmetric(self, a, b):
        x, y = sol(a), sol(b)
        assert compare(x, y) == -compare(y, x)

    @given(objective_vec, objective_vec, objective_vec)
    def test_dominance_transitive(self, a, b, c):
        x, y, z = sol(a), sol(b), sol(c)
        if dominates(x, y) and dominates(y, z):
            assert dominates(x, z)


class TestNonDominated:
    def test_simple_front(self):
        pop = [sol([1, 3, 0]), sol([3, 1, 0]), sol([2, 2, 0]), sol([4, 4, 0])]
        front = non_dominated(pop)
        assert {tuple(s.objectives) for s in front} == {
            (1, 3, 0),
            (3, 1, 0),
            (2, 2, 0),
        }

    def test_empty(self):
        assert non_dominated([]) == []

    def test_matches_bruteforce(self, rng):
        pop = [sol(rng.integers(0, 4, size=3).astype(float)) for _ in range(30)]
        fast = non_dominated(pop)
        brute = [
            p
            for p in pop
            if not any(dominates(q, p) for q in pop)
        ]
        assert {id(s) for s in fast} == {id(s) for s in brute}

    def test_respects_constraints(self):
        pop = [sol([0, 0, 0], violation=5.0), sol([9, 9, 9])]
        front = non_dominated(pop)
        assert len(front) == 1 and front[0].is_feasible


class TestNothingFeasible:
    """A front with no feasible member, as NSGA-II stores it.

    The two members are the stored front of the ``paper-rw`` campaign
    at master seed 506000, cell ``d300-random-walk-a500-s0-nsgaii``:
    600 evaluations found no feasible vector, and both survivors have
    the same violation.  Deb's rule 2 ties equal violations, so both
    stay although the first one's objectives dominate the second's
    (DESIGN.md §17).
    """

    VIOLATION = 0.0038993030655039007
    BETTER = [46.83021595228414, -21.5, 2.0]
    WORSE = [46.832091349943525, -21.5, 2.0]

    def _front(self):
        return sol(self.BETTER, self.VIOLATION), sol(self.WORSE, self.VIOLATION)

    def test_equal_positive_violations_tie(self):
        better, worse = self._front()
        assert pareto_dominates(self.BETTER, self.WORSE)
        assert compare(better, worse) == 0
        assert compare(worse, better) == 0

    def test_non_dominated_keeps_both(self):
        better, worse = self._front()
        assert non_dominated([better, worse]) == [better, worse]
        assert non_dominated([worse, better]) == [worse, better]

    def test_any_feasible_member_beats_every_infeasible_one(self):
        better, worse = self._front()
        feasible = sol([1e6, 0.0, 1e6])
        for infeasible in (better, worse):
            assert compare(feasible, infeasible) == -1
            assert compare(infeasible, feasible) == 1
        assert non_dominated([better, worse, feasible]) == [feasible]


class TestMask:
    def test_known(self):
        obj = np.array([[1.0, 3.0], [3.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        mask = non_dominated_objectives_mask(obj)
        np.testing.assert_array_equal(mask, [True, True, True, False])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            non_dominated_objectives_mask(np.zeros(3))
