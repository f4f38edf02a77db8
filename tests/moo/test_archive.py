"""Archive invariants, including the AGA properties the paper relies on."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moo.archive import (
    AdaptiveGridArchive,
    CrowdingDistanceArchive,
    EpsilonArchive,
    UnboundedArchive,
)
from repro.moo.dominance import dominates
from repro.moo.solution import FloatSolution


def sol(objectives, violation=0.0):
    s = FloatSolution(np.zeros(2), len(objectives))
    s.objectives = np.asarray(objectives, dtype=float)
    s.constraint_violation = violation
    return s


def mutually_nondominated(archive):
    members = archive.members
    return not any(
        dominates(a, b)
        for i, a in enumerate(members)
        for j, b in enumerate(members)
        if i != j
    )


class TestUnbounded:
    def test_accepts_first(self):
        a = UnboundedArchive()
        assert a.add(sol([1, 1]))
        assert len(a) == 1

    def test_rejects_dominated(self):
        a = UnboundedArchive()
        a.add(sol([1, 1]))
        assert not a.add(sol([2, 2]))
        assert len(a) == 1

    def test_evicts_dominated_members(self):
        a = UnboundedArchive()
        a.add(sol([2, 2]))
        a.add(sol([3, 0]))
        assert a.add(sol([1, 1]))  # dominates (2,2) but not (3,0)
        objs = {tuple(m.objectives) for m in a.members}
        assert objs == {(1.0, 1.0), (3.0, 0.0)}

    def test_rejects_duplicates(self):
        a = UnboundedArchive()
        a.add(sol([1, 2]))
        assert not a.add(sol([1, 2]))

    def test_feasible_replaces_infeasible(self):
        a = UnboundedArchive()
        a.add(sol([0, 0], violation=1.0))
        assert a.add(sol([5, 5]))
        assert all(m.is_feasible for m in a.members)

    def test_rejects_unevaluated(self):
        a = UnboundedArchive()
        with pytest.raises(ValueError):
            a.add(FloatSolution(np.zeros(2), 2))

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_always_mutually_nondominated(self, seed):
        gen = np.random.default_rng(seed)
        a = UnboundedArchive()
        for _ in range(40):
            a.add(sol(gen.integers(0, 6, size=3).astype(float)))
        assert mutually_nondominated(a)


class TestCrowdingArchive:
    def test_capacity_enforced(self, rng):
        a = CrowdingDistanceArchive(capacity=10)
        # A long non-dominated line.
        for i in range(30):
            a.add(sol([float(i), float(29 - i)]))
        assert len(a) <= 10
        assert mutually_nondominated(a)

    def test_extremes_tend_to_survive(self):
        a = CrowdingDistanceArchive(capacity=5)
        for i in range(21):
            a.add(sol([float(i), float(20 - i)]))
        objs = {tuple(m.objectives) for m in a.members}
        assert (0.0, 20.0) in objs and (20.0, 0.0) in objs

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CrowdingDistanceArchive(0)


class TestAGA:
    def make(self, capacity=20, rng_seed=0):
        return AdaptiveGridArchive(
            capacity=capacity, n_objectives=2, bisections=3, rng=rng_seed
        )

    def test_capacity_enforced(self):
        a = self.make(capacity=15)
        for i in range(60):
            a.add(sol([float(i), float(59 - i)]))
        assert len(a) <= 15

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_invariants_under_random_stream(self, seed):
        gen = np.random.default_rng(seed)
        a = self.make(capacity=12, rng_seed=seed)
        for _ in range(80):
            pt = gen.random(2) * 10
            # Push toward a non-dominated line so the archive fills.
            a.add(sol([pt[0], 10.0 - pt[0] + 0.1 * pt[1]]))
        assert len(a) <= 12
        assert mutually_nondominated(a)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_property_i_extremes_never_evicted(self, seed):
        # Property (i) of Sect. IV-A: per-objective extreme solutions stay.
        # Points on the line x + y = 20 are mutually non-dominated, so any
        # disappearance would be a grid eviction — which must never hit
        # the per-objective minima.
        gen = np.random.default_rng(seed)
        a = self.make(capacity=8, rng_seed=seed)
        inserted = []
        for _ in range(100):
            x = float(gen.random() * 20)
            inserted.append((x, 20.0 - x))
            a.add(sol([x, 20.0 - x]))
        objs = np.vstack([m.objectives for m in a.members])
        best_x = min(p[0] for p in inserted)
        best_y = min(p[1] for p in inserted)
        assert objs[:, 0].min() == pytest.approx(best_x)
        assert objs[:, 1].min() == pytest.approx(best_y)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_property_ii_occupied_regions_keep_a_representative(self, seed):
        # Property (ii) of Sect. IV-A: eviction only touches a most
        # crowded cell, so it may empty a region only when no cell holds
        # two members.  The two extremes go in first, so the interior
        # stream never re-fits the grid and cells keep their meaning;
        # the points are mutually non-dominated, so only grid evictions
        # remove members.
        gen = np.random.default_rng(seed)
        a = self.make(capacity=8, rng_seed=seed)
        a.add(sol([0.0, 20.0]))
        a.add(sol([20.0, 0.0]))
        bounds = a.grid_bounds()
        for _ in range(100):
            x = float(gen.random() * 20)
            before = [a.cell_of(m.objectives) for m in a.members]
            cells = Counter(before)
            cells[a.cell_of(np.array([x, 20.0 - x]))] += 1
            a.add(sol([x, 20.0 - x]))
            after = {a.cell_of(m.objectives) for m in a.members}
            if max(cells.values()) >= 2:
                assert set(before) <= after
        assert all(
            np.array_equal(old, new) for old, new in zip(bounds, a.grid_bounds())
        )

    def test_property_iii_balanced_cells(self):
        # Eviction targets the most crowded cell: a dense cluster plus
        # spread points must not evict the spread points.
        a = self.make(capacity=10, rng_seed=1)
        # Spread line.
        for i in range(5):
            a.add(sol([2.0 * i, 8.0 - 2.0 * i]))
        # Dense non-dominated cluster in a corner (tiny variations).
        for k in range(30):
            eps = 1e-3 * k
            a.add(sol([9.0 + eps, -1.0 - eps]))
        objs = np.vstack([m.objectives for m in a.members])
        # All 5 spread points survive.
        for i in range(5):
            assert any(
                np.allclose(row, [2.0 * i, 8.0 - 2.0 * i]) for row in objs
            )

    def test_sampling_returns_copies(self):
        a = self.make()
        a.add(sol([1, 2]))
        picks = a.sample(3)
        assert len(picks) == 3
        picks[0].objectives[0] = 99.0
        assert a.members[0].objectives[0] == 1.0

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            self.make().sample(1)

    def test_grid_adapts_to_outliers(self):
        a = self.make()
        a.add(sol([0.0, 1.0]))
        a.add(sol([1.0, 0.0]))
        lo1, hi1 = a.grid_bounds()
        a.add(sol([-100.0, 50.0]))  # far outside: grid must re-fit
        lo2, hi2 = a.grid_bounds()
        assert lo2[0] < lo1[0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            AdaptiveGridArchive(0, 2)
        with pytest.raises(ValueError):
            AdaptiveGridArchive(10, 0)
        with pytest.raises(ValueError):
            AdaptiveGridArchive(10, 2, bisections=0)


#: Offers on a coarse grid (ties, duplicates and dominance are common),
#: a third of them infeasible.
offer = st.tuples(
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=3, max_size=3),
    st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 1.0]),
)

ARCHIVES = {
    "unbounded": UnboundedArchive,
    "crowding": lambda: CrowdingDistanceArchive(4),
    "grid": lambda: AdaptiveGridArchive(4, 3, bisections=2, rng=0),
    "epsilon": lambda: EpsilonArchive(0.7, 3),
}


class TestMatrixSync:
    """Every archive keeps its objective matrix and clamped violations in
    step with its members, through whatever insertions and evictions."""

    @pytest.mark.parametrize("kind", ARCHIVES)
    @given(offers=st.lists(offer, min_size=20, max_size=60))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_cached_matrix_is_the_stacked_members(self, kind, offers):
        archive = ARCHIVES[kind]()
        for objectives, violation in offers:
            archive.add(sol(objectives, violation))
            members = archive.members
            if members:
                stacked = np.vstack([m.objectives for m in members])
            else:
                stacked = np.empty((0, 0))
            matrix = archive.objectives_matrix()
            assert matrix.shape == stacked.shape
            assert matrix.tobytes() == stacked.tobytes()
            assert archive._vio.tolist() == [
                max(m.constraint_violation, 0.0) for m in members
            ]
            assert mutually_nondominated(archive)

    @given(offers=st.lists(offer, min_size=20, max_size=60))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_unbounded_members_are_the_brute_force_filter(self, offers):
        offered = [sol(objectives, violation) for objectives, violation in offers]
        archive = UnboundedArchive()
        for candidate in offered:
            archive.add(candidate)
        # Every offer no other offer constraint-dominates, in offer order,
        # the first of each objective vector.
        expected, seen = [], set()
        for candidate in offered:
            if any(dominates(other, candidate) for other in offered):
                continue
            key = candidate.objectives.tobytes()
            if key not in seen:
                seen.add(key)
                expected.append(candidate)
        assert [id(m) for m in archive.members] == [id(m) for m in expected]
