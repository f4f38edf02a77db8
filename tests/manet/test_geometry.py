"""Geometry helpers: reflection fold and distance matrices."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.manet.geometry import (
    distances_from_point,
    pairwise_distances,
    reflect_fold,
)

SIDE = 500.0


class TestReflectFold:
    def test_identity_inside(self):
        coords = np.array([0.0, 10.0, 250.0, 499.9, 500.0])
        np.testing.assert_allclose(reflect_fold(coords, SIDE), coords)

    def test_simple_reflection(self):
        assert reflect_fold(510.0, SIDE) == pytest.approx(490.0)
        assert reflect_fold(-10.0, SIDE) == pytest.approx(10.0)

    def test_double_reflection(self):
        # 500 + 600 -> bounce off far wall (400 back) then near wall.
        assert reflect_fold(1100.0, SIDE) == pytest.approx(100.0)

    def test_periodicity(self):
        assert reflect_fold(123.0 + 2 * SIDE, SIDE) == pytest.approx(123.0)

    @given(st.floats(-1e6, 1e6))
    def test_always_in_bounds(self, x):
        folded = reflect_fold(x, SIDE)
        assert 0.0 <= folded <= SIDE

    @given(st.floats(-1e4, 1e4), st.floats(1e-3, 1e-1))
    def test_continuity(self, x, eps):
        # A ballistic trajectory through walls stays continuous.
        a = reflect_fold(x, SIDE)
        b = reflect_fold(x + eps, SIDE)
        assert abs(b - a) <= eps + 1e-9

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            reflect_fold(1.0, 0.0)

    def test_array_shape_preserved(self):
        arr = np.arange(12, dtype=float).reshape(3, 4) * 100
        out = reflect_fold(arr, SIDE)
        assert out.shape == (3, 4)


class TestPairwiseDistances:
    def test_known_values(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 4.0]])
        d = pairwise_distances(pos)
        assert d[0, 1] == pytest.approx(5.0)
        assert d[0, 2] == pytest.approx(4.0)
        assert d[1, 2] == pytest.approx(3.0)

    def test_symmetric_zero_diagonal(self, rng):
        pos = rng.uniform(0, SIDE, size=(20, 2))
        d = pairwise_distances(pos)
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)

    @given(st.integers(2, 12))
    def test_triangle_inequality(self, n):
        gen = np.random.default_rng(n)
        pos = gen.uniform(0, 100, size=(n, 2))
        d = pairwise_distances(pos)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "pos",
        [
            np.array([[250.0, 250.0]]),
            # Coincident nodes: zero off the diagonal.
            np.array([[10.0, 20.0], [10.0, 20.0], [10.0, 20.0], [7.5, 1e-9]]),
            # Arena corners and edge midpoints.
            np.array([
                [0.0, 0.0], [SIDE, 0.0], [0.0, SIDE], [SIDE, SIDE],
                [SIDE / 2, 0.0], [0.0, SIDE / 2], [SIDE, SIDE / 2],
            ]),
            np.random.default_rng(3).uniform(0, SIDE, size=(75, 2)),
            np.random.default_rng(4).uniform(0, 1e-3, size=(9, 2)),
        ],
        ids=["one-node", "coincident", "corners", "uniform-75", "tiny"],
    )
    def test_bitwise_equal_to_the_einsum_reference(self, pos):
        """Beacon snapshots and every metric rest on these exact bits."""
        assert pairwise_distances(pos).tobytes() == _einsum_reference(pos).tobytes()

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, SIDE, allow_subnormal=True),
                st.floats(0.0, SIDE, allow_subnormal=True),
            ),
            min_size=1, max_size=16,
        )
    )
    def test_bitwise_equal_to_the_einsum_reference_anywhere(self, points):
        pos = np.array(points, dtype=float)
        assert pairwise_distances(pos).tobytes() == _einsum_reference(pos).tobytes()


def _einsum_reference(pos: np.ndarray) -> np.ndarray:
    """The broadcast-and-einsum spelling ``pairwise_distances`` replaced."""
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class TestDistancesFromPoint:
    def test_matches_pairwise(self, rng):
        pos = rng.uniform(0, SIDE, size=(10, 2))
        d = distances_from_point(pos, pos[0])
        full = pairwise_distances(pos)
        np.testing.assert_allclose(d, full[0])

    def test_rejects_bad_point(self):
        with pytest.raises(ValueError):
            distances_from_point(np.zeros((3, 2)), np.zeros(3))
