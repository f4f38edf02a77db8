"""Quality indicators: known values and cross-validation properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moo.indicators import (
    NormalizationBounds,
    additive_epsilon,
    generalized_spread,
    hypervolume,
    hypervolume_2d,
    hypervolume_3d,
    inverted_generational_distance,
    spread,
)
from repro.moo.indicators.hypervolume import (
    hypervolume_inclusion_exclusion,
    hypervolume_monte_carlo,
)
from repro.moo.indicators.igd import generational_distance


class TestHypervolume2D:
    def test_single_point(self):
        assert hypervolume_2d([[0.0, 0.0]], [1.0, 1.0]) == pytest.approx(1.0)

    def test_two_points_staircase(self):
        front = [[0.0, 0.5], [0.5, 0.0]]
        # Union of two 1x0.5 rectangles minus 0.5x0.5 overlap.
        assert hypervolume_2d(front, [1.0, 1.0]) == pytest.approx(0.75)

    def test_dominated_point_ignored(self):
        assert hypervolume_2d(
            [[0.0, 0.0], [0.5, 0.5]], [1.0, 1.0]
        ) == pytest.approx(1.0)

    def test_point_outside_reference_ignored(self):
        assert hypervolume_2d([[2.0, 2.0]], [1.0, 1.0]) == 0.0

    def test_empty(self):
        assert hypervolume_2d(np.empty((0, 2)), [1.0, 1.0]) == 0.0


class TestHypervolume3D:
    def test_single_point(self):
        assert hypervolume_3d([[0, 0, 0]], [1, 1, 1]) == pytest.approx(1.0)

    def test_known_two_points(self):
        front = [[0.0, 0.0, 0.5], [0.5, 0.5, 0.0]]
        # v(a)=1*1*0.5=0.5, v(b)=0.5*0.5*1=0.25, overlap=0.5*0.5*0.5.
        assert hypervolume_3d(front, [1, 1, 1]) == pytest.approx(0.625)

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_matches_inclusion_exclusion(self, seed):
        gen = np.random.default_rng(seed)
        front = gen.random((gen.integers(1, 8), 3))
        ref = np.array([1.2, 1.2, 1.2])
        fast = hypervolume_3d(front, ref)
        exact = hypervolume_inclusion_exclusion(front, ref)
        assert fast == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_duplicate_z_levels(self):
        front = [[0.2, 0.8, 0.5], [0.8, 0.2, 0.5], [0.5, 0.5, 0.1]]
        exact = hypervolume_inclusion_exclusion(front, [1, 1, 1])
        assert hypervolume_3d(front, [1, 1, 1]) == pytest.approx(exact)


class TestHypervolumeDispatch:
    def test_2d_and_3d_route_to_exact(self):
        assert hypervolume([[0.0, 0.0]], [1.0, 1.0]) == pytest.approx(1.0)
        assert hypervolume([[0, 0, 0]], [1, 1, 1]) == pytest.approx(1.0)

    def test_monte_carlo_close_to_exact(self):
        gen = np.random.default_rng(0)
        front = gen.random((6, 3))
        ref = np.array([1.1] * 3)
        exact = hypervolume_3d(front, ref)
        approx = hypervolume_monte_carlo(front, ref, n_samples=60_000, rng=1)
        assert approx == pytest.approx(exact, rel=0.05)

    def test_4d_uses_monte_carlo(self):
        val = hypervolume([[0.5] * 4], np.ones(4), n_samples=20_000, rng=0)
        assert val == pytest.approx(0.5**4, rel=0.1)

    def test_mismatched_reference_raises(self):
        with pytest.raises(ValueError):
            hypervolume([[0.0, 0.0]], [1.0, 1.0, 1.0])


class TestIGD:
    def test_zero_when_identical(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert inverted_generational_distance(front, front) == 0.0

    def test_paper_formula(self):
        # Two reference points at distance 3 and 4 from the front:
        # IGD = sqrt(9 + 16) / 2 = 2.5.
        front = np.array([[0.0, 0.0]])
        ref = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert inverted_generational_distance(front, ref) == pytest.approx(2.5)

    def test_power_one_is_mean(self):
        front = np.array([[0.0, 0.0]])
        ref = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert inverted_generational_distance(
            front, ref, power=1.0
        ) == pytest.approx(3.5)

    def test_gd_mirrors_igd(self):
        a = np.array([[0.0, 0.0], [5.0, 5.0]])
        b = np.array([[1.0, 1.0]])
        assert generational_distance(a, b) == pytest.approx(
            inverted_generational_distance(b, a)
        )

    def test_igd_improves_with_coverage(self):
        ref = np.column_stack(
            [np.linspace(0, 1, 20), 1 - np.linspace(0, 1, 20)]
        )
        sparse = ref[::10]
        dense = ref[::2]
        assert inverted_generational_distance(
            dense, ref
        ) < inverted_generational_distance(sparse, ref)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="fronts must be non-empty"):
            inverted_generational_distance(np.empty((0, 2)), np.ones((1, 2)))

    def test_empty_reference_front_raises(self):
        with pytest.raises(ValueError, match="fronts must be non-empty"):
            inverted_generational_distance(np.ones((1, 2)), np.empty((0, 2)))


class TestSpread:
    def test_perfect_uniform_2d(self):
        front = np.column_stack(
            [np.linspace(0, 1, 11), 1 - np.linspace(0, 1, 11)]
        )
        assert spread(front, front) == pytest.approx(0.0, abs=1e-12)

    def test_clustered_worse_than_uniform(self):
        ref = np.column_stack(
            [np.linspace(0, 1, 21), 1 - np.linspace(0, 1, 21)]
        )
        uniform = ref[::4]
        clustered = ref[[0, 1, 2, 3, 20]]
        assert spread(clustered, ref) > spread(uniform, ref)

    def test_generalized_uniform_grid_low(self):
        # Uniform grid on the plane x+y+z=1.
        pts = []
        for i in range(6):
            for j in range(6 - i):
                pts.append([i / 5, j / 5, (5 - i - j) / 5])
        front = np.array(pts)
        value = generalized_spread(front, front)
        assert value < 0.5

    def test_generalized_detects_clustering(self):
        ref = np.array(
            [[i / 10, j / 10, 1 - i / 10 - j / 10]
             for i in range(11) for j in range(11 - i)]
        )
        uniform = ref[::6]
        clustered = np.vstack([ref[:6], ref[-1:]])
        assert generalized_spread(clustered, ref) > generalized_spread(
            uniform, ref
        )

    def test_single_point_worst(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spread(np.array([[0.5, 0.5]]), ref) == 1.0
        assert generalized_spread(np.array([[0.5, 0.5]]), ref) == 1.0

    def test_spread_requires_2d(self):
        with pytest.raises(ValueError):
            spread(np.ones((3, 3)), np.ones((3, 3)))

    @pytest.mark.parametrize("indicator", [spread, generalized_spread])
    def test_empty_reference_front_raises(self, indicator):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="fronts must be non-empty"):
            indicator(front, np.empty((0, 2)))

    @pytest.mark.parametrize("indicator", [spread, generalized_spread])
    def test_empty_front_raises(self, indicator):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="fronts must be non-empty"):
            indicator(np.empty((0, 2)), ref)


class TestEpsilon:
    def test_zero_for_identical(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert additive_epsilon(front, front) == pytest.approx(0.0)

    def test_translation_measured(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        shifted = ref + 0.25
        assert additive_epsilon(shifted, ref) == pytest.approx(0.25)

    def test_asymmetry(self):
        ref = np.array([[0.0, 0.0]])
        worse = np.array([[1.0, 1.0]])
        assert additive_epsilon(worse, ref) > additive_epsilon(ref, worse)


class TestNormalization:
    def test_unit_box(self):
        front = np.array([[0.0, 10.0], [5.0, 20.0]])
        bounds = NormalizationBounds.from_front(front)
        normed = bounds.apply(front)
        np.testing.assert_allclose(normed.min(axis=0), [0.0, 0.0])
        np.testing.assert_allclose(normed.max(axis=0), [1.0, 1.0])

    def test_degenerate_axis(self):
        front = np.array([[1.0, 5.0], [2.0, 5.0]])
        bounds = NormalizationBounds.from_front(front)
        normed = bounds.apply(front)
        np.testing.assert_allclose(normed[:, 1], 0.0)

    def test_outside_values_allowed(self):
        bounds = NormalizationBounds.from_front(np.array([[0.0], [1.0]]))
        assert bounds.apply(np.array([[2.0]]))[0, 0] == pytest.approx(2.0)

    def test_reference_point(self):
        bounds = NormalizationBounds.from_front(np.array([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(bounds.reference_point(0.1), [1.1, 1.1])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            NormalizationBounds.from_front(np.empty((0, 2)))
