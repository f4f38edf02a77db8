"""Fast non-dominated sorting and crowding distance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moo.density import (
    assign_crowding_distance,
    crowded_compare,
    crowding,
    crowding_distance_of,
)
from repro.moo.algorithms.cellde import displaced_member
from repro.moo.dominance import compare
from repro.moo.ranking import domination_matrix, fast_non_dominated_sort, ranks
from repro.moo.solution import FloatSolution


def sol(objectives, violation=0.0):
    s = FloatSolution(np.zeros(2), len(objectives))
    s.objectives = np.asarray(objectives, dtype=float)
    s.constraint_violation = violation
    return s


class TestDominationMatrix:
    @given(st.integers(1, 20), st.integers(0, 1000))
    @settings(max_examples=25)
    def test_matches_pairwise_compare(self, n, seed):
        gen = np.random.default_rng(seed)
        pop = [
            sol(gen.integers(0, 4, size=3).astype(float),
                violation=float(gen.integers(0, 2)))
            for _ in range(n)
        ]
        obj = np.vstack([s.objectives for s in pop])
        vio = np.array([s.constraint_violation for s in pop])
        dom = domination_matrix(obj, vio)
        for i in range(n):
            for j in range(n):
                assert dom[i, j] == (compare(pop[i], pop[j]) == -1)


class TestSorting:
    def test_layered_fronts(self):
        pop = [
            sol([1, 1]),  # F0
            sol([2, 2]),  # F1
            sol([3, 3]),  # F2
            sol([0, 4]),  # F0 (incomparable with [1,1]? no: 0<1, 4>1 -> F0)
        ]
        fronts = fast_non_dominated_sort(pop)
        assert [len(f) for f in fronts] == [2, 1, 1]
        assert pop[0].attributes["rank"] == 0
        assert pop[3].attributes["rank"] == 0
        assert pop[1].attributes["rank"] == 1
        assert pop[2].attributes["rank"] == 2

    def test_all_nondominated(self):
        pop = [sol([i, 5 - i]) for i in range(6)]
        fronts = fast_non_dominated_sort(pop)
        assert len(fronts) == 1 and len(fronts[0]) == 6

    def test_infeasible_rank_behind(self):
        pop = [sol([5, 5]), sol([0, 0], violation=1.0)]
        fronts = fast_non_dominated_sort(pop)
        assert fronts[0] == [pop[0]]

    def test_empty(self):
        assert fast_non_dominated_sort([]) == []

    def test_partition_complete(self, rng):
        pop = [sol(rng.random(3) * 4) for _ in range(25)]
        fronts = fast_non_dominated_sort(pop)
        assert sum(len(f) for f in fronts) == 25


class TestCrowding:
    def test_extremes_infinite(self):
        front = [sol([0, 3]), sol([1, 2]), sol([2, 1]), sol([3, 0])]
        assign_crowding_distance(front)
        assert crowding_distance_of(front[0]) == np.inf
        assert crowding_distance_of(front[3]) == np.inf

    def test_interior_value(self):
        front = [sol([0.0, 4.0]), sol([1.0, 1.0]), sol([4.0, 0.0])]
        assign_crowding_distance(front)
        # Middle point: (4-0)/4 + (4-0)/4 = 2.
        assert crowding_distance_of(front[1]) == pytest.approx(2.0)

    def test_small_fronts_all_infinite(self):
        front = [sol([1, 2]), sol([2, 1])]
        assign_crowding_distance(front)
        assert all(crowding_distance_of(s) == np.inf for s in front)

    def test_degenerate_objective(self):
        front = [sol([0, 1]), sol([1, 1]), sol([2, 1])]
        assign_crowding_distance(front)  # must not raise / NaN
        assert np.isfinite(crowding_distance_of(front[1])) or crowding_distance_of(
            front[1]
        ) == np.inf

    def test_crowded_compare_prefers_lower_rank(self):
        a, b = sol([1, 1]), sol([2, 2])
        a.attributes["rank"] = 0
        b.attributes["rank"] = 1
        a.attributes["crowding_distance"] = 0.0
        b.attributes["crowding_distance"] = 99.0
        assert crowded_compare(a, b) == -1

    def test_crowded_compare_breaks_ties_by_distance(self):
        a, b = sol([1, 1]), sol([2, 2])
        a.attributes["rank"] = b.attributes["rank"] = 0
        a.attributes["crowding_distance"] = 1.0
        b.attributes["crowding_distance"] = 2.0
        assert crowded_compare(a, b) == 1


def python_ranks(pop):
    """Reference front index: the longest constraint-domination chain
    ending at each solution, from pairwise ``compare`` alone."""
    rank = [0] * len(pop)
    for _ in pop:
        rank = [
            max(
                [rank[i] + 1 for i in range(len(pop)) if compare(pop[i], s) == -1],
                default=0,
            )
            for s in pop
        ]
    return rank


def reference_displaced(view):
    """Cellular replacement through the solution-list wrappers: rank and
    crowd every front, annotate, pick the worst by (rank, -crowding)."""
    for front in fast_non_dominated_sort(view):
        assign_crowding_distance(front)

    def key(s):
        return (s.attributes["rank"], -crowding_distance_of(s))

    worst = max(range(len(view) - 1), key=lambda k: key(view[k]))
    return worst if key(view[-1]) < key(view[worst]) else None


grid_point = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=3, max_size=3)


def numpy_crowding(objectives: np.ndarray) -> np.ndarray:
    """The numpy formulation :func:`crowding` replaced (reference)."""
    n = objectives.shape[0]
    if n <= 2:
        return np.full(n, np.inf)
    distance = np.zeros(n)
    for m in range(objectives.shape[1]):
        order = np.argsort(objectives[:, m], kind="stable")
        col = objectives[order, m]
        span = col[-1] - col[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span <= 0:
            continue
        gaps = (col[2:] - col[:-2]) / span
        interior = order[1:-1]
        finite = ~np.isinf(distance[interior])
        distance[interior[finite]] += gaps[finite]
    return distance


class TestArrayCores:
    @given(
        st.lists(
            st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.5, 1e-300, 7.25e8]),
                     min_size=3, max_size=3)
            | st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
            min_size=0, max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_crowding_is_the_numpy_formulation(self, rows):
        expected = numpy_crowding(np.array(rows, dtype=float).reshape(-1, 3))
        assert np.array(crowding(rows), dtype=float).tobytes() == expected.tobytes()

    @given(
        st.lists(st.tuples(grid_point, st.sampled_from([0.0, 0.0, 1.0, 2.0])),
                 min_size=1, max_size=25)
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_ranks_are_the_longest_domination_chain(self, points):
        pop = [sol(objectives, violation) for objectives, violation in points]
        obj = np.array([s.objectives for s in pop])
        vio = np.array([s.constraint_violation for s in pop])
        assert ranks(obj, vio).tolist() == python_ranks(pop)

    @given(
        st.lists(st.tuples(grid_point, st.sampled_from([0.0, 0.0, 0.0, 1.0])),
                 min_size=3, max_size=12),
        st.lists(st.integers(0, 11), min_size=9, max_size=9),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_displaced_member_matches_the_wrappers(self, pool, picks):
        # Nine cells drawn with repetition (the same solution may fill
        # several cells, as on a 2-wide torus) plus the newcomer.
        members = [sol(objectives, violation) for objectives, violation in pool]
        view = [members[i % (len(members) - 1)] for i in picks] + [members[-1]]
        assert displaced_member(view) == reference_displaced(view)
