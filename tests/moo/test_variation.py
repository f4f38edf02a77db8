"""Variation operators: bounds, probabilities, formulas."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moo.problems import ZDT1
from repro.moo.solution import FloatSolution
from repro.moo.variation import (
    BLXAlphaCrossover,
    DifferentialEvolutionCrossover,
    PolynomialMutation,
    SBXCrossover,
    UniformMutation,
)


@pytest.fixture(scope="module")
def problem():
    return ZDT1(n_variables=8)


def random_solution(problem, seed):
    return problem.create_solution(np.random.default_rng(seed))


class TestSBX:
    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_children_in_bounds(self, seed):
        problem = ZDT1(n_variables=8)
        a, b = random_solution(problem, seed), random_solution(problem, seed + 1)
        ca, cb = SBXCrossover().execute(a, b, problem, np.random.default_rng(seed))
        for child in (ca, cb):
            assert np.all(child.variables >= problem.lower_bounds)
            assert np.all(child.variables <= problem.upper_bounds)

    def test_parents_unchanged(self, problem):
        a, b = random_solution(problem, 1), random_solution(problem, 2)
        va, vb = a.variables.copy(), b.variables.copy()
        SBXCrossover().execute(a, b, problem, 3)
        np.testing.assert_array_equal(a.variables, va)
        np.testing.assert_array_equal(b.variables, vb)

    def test_zero_probability_copies_parents(self, problem):
        a, b = random_solution(problem, 1), random_solution(problem, 2)
        ca, cb = SBXCrossover(probability=0.0).execute(a, b, problem, 3)
        np.testing.assert_array_equal(ca.variables, a.variables)
        np.testing.assert_array_equal(cb.variables, b.variables)

    def test_mean_preserving_before_clip(self, problem):
        # SBX children are symmetric around the parents' mean.
        a, b = random_solution(problem, 5), random_solution(problem, 6)
        sums = []
        for seed in range(50):
            ca, cb = SBXCrossover(probability=1.0).execute(
                a, b, problem, np.random.default_rng(seed)
            )
            sums.append(ca.variables + cb.variables)
        np.testing.assert_allclose(
            np.mean(sums, axis=0), a.variables + b.variables, atol=0.05
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SBXCrossover(probability=1.5)


class TestPolynomialMutation:
    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_in_bounds(self, seed):
        problem = ZDT1(n_variables=8)
        s = random_solution(problem, seed)
        out = PolynomialMutation(probability=1.0).execute(
            s, problem, np.random.default_rng(seed)
        )
        assert np.all(out.variables >= problem.lower_bounds)
        assert np.all(out.variables <= problem.upper_bounds)

    def test_zero_probability_identity(self, problem):
        s = random_solution(problem, 1)
        out = PolynomialMutation(probability=0.0).execute(s, problem, 2)
        np.testing.assert_array_equal(out.variables, s.variables)

    def test_default_rate_is_one_over_n(self, problem):
        # With pm = 1/n, on average one gene mutates.
        changed = 0
        for seed in range(200):
            s = random_solution(problem, seed)
            out = PolynomialMutation().execute(
                s, problem, np.random.default_rng(seed + 1)
            )
            changed += int(np.sum(out.variables != s.variables))
        assert 100 <= changed <= 320  # ~200 expected

    def test_high_eta_small_steps(self, problem):
        s = random_solution(problem, 3)
        small = PolynomialMutation(probability=1.0, eta=200.0).execute(
            s, problem, np.random.default_rng(4)
        )
        assert np.max(np.abs(small.variables - s.variables)) < 0.2


class TestBLX:
    @given(st.integers(0, 300))
    @settings(max_examples=30)
    def test_in_bounds(self, seed):
        problem = ZDT1(n_variables=8)
        a, b = random_solution(problem, seed), random_solution(problem, seed + 7)
        out = BLXAlphaCrossover(alpha=0.5).execute(
            a, b, problem, np.random.default_rng(seed)
        )
        assert np.all(out.variables >= problem.lower_bounds)
        assert np.all(out.variables <= problem.upper_bounds)

    def test_child_within_extended_interval(self, problem):
        a, b = random_solution(problem, 1), random_solution(problem, 2)
        alpha = 0.3
        out = BLXAlphaCrossover(alpha=alpha, probability=1.0).execute(
            a, b, problem, 3
        )
        lo = np.minimum(a.variables, b.variables)
        hi = np.maximum(a.variables, b.variables)
        width = hi - lo
        assert np.all(out.variables >= np.maximum(lo - alpha * width, 0.0) - 1e-12)
        assert np.all(out.variables <= np.minimum(hi + alpha * width, 1.0) + 1e-12)


class TestDE:
    def test_cr_one_gives_pure_mutant(self, problem):
        cur = random_solution(problem, 1)
        base = random_solution(problem, 2)
        a, b = random_solution(problem, 3), random_solution(problem, 4)
        out = DifferentialEvolutionCrossover(cr=1.0, f=0.5).execute(
            cur, base, a, b, problem, 5
        )
        expected = problem.clip(base.variables + 0.5 * (a.variables - b.variables))
        np.testing.assert_allclose(out.variables, expected)

    def test_cr_zero_keeps_current_except_one_gene(self, problem):
        cur = random_solution(problem, 1)
        base = random_solution(problem, 2)
        a, b = random_solution(problem, 3), random_solution(problem, 4)
        out = DifferentialEvolutionCrossover(cr=0.0, f=0.5).execute(
            cur, base, a, b, problem, 5
        )
        differing = np.sum(out.variables != cur.variables)
        assert differing == 1  # the guaranteed gene

    @given(st.integers(0, 300))
    @settings(max_examples=30)
    def test_in_bounds(self, seed):
        problem = ZDT1(n_variables=8)
        gen = np.random.default_rng(seed)
        sols = [problem.create_solution(gen) for _ in range(4)]
        out = DifferentialEvolutionCrossover().execute(*sols, problem, gen)
        assert np.all(out.variables >= problem.lower_bounds)
        assert np.all(out.variables <= problem.upper_bounds)


class TestUniformMutation:
    def test_probability_one_resamples(self, problem):
        s = random_solution(problem, 1)
        out = UniformMutation(probability=1.0).execute(s, problem, 2)
        assert np.all(out.variables >= problem.lower_bounds)
        assert np.all(out.variables <= problem.upper_bounds)
        assert not np.array_equal(out.variables, s.variables)

    def test_probability_zero_identity(self, problem):
        s = random_solution(problem, 1)
        out = UniformMutation(probability=0.0).execute(s, problem, 2)
        np.testing.assert_array_equal(out.variables, s.variables)


# --------------------------------------------------------------------- #
# The numpy formulations the plain-float operators replaced, kept as
# references: same Generator calls, same arithmetic, array-wide.
def _numpy_sbx(op, parent_a, parent_b, problem, gen):
    x = parent_a.variables.copy()
    y = parent_b.variables.copy()
    if gen.random() <= op.probability:
        n = x.size
        u = gen.random(n)
        beta = np.where(
            u <= 0.5,
            (2.0 * u) ** (1.0 / (op.eta + 1.0)),
            (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (op.eta + 1.0)),
        )
        do_cross = gen.random(n) <= 0.5
        c1 = 0.5 * ((1 + beta) * x + (1 - beta) * y)
        c2 = 0.5 * ((1 - beta) * x + (1 + beta) * y)
        x = np.where(do_cross, c1, x)
        y = np.where(do_cross, c2, y)
    return problem.clip(x), problem.clip(y)


def _numpy_polynomial(op, solution, problem, gen):
    x = solution.variables.copy()
    n = x.size
    prob = op.probability if op.probability is not None else 1.0 / n
    lo, hi = problem.lower_bounds, problem.upper_bounds
    span = hi - lo
    mutate = gen.random(n) <= prob
    if np.any(mutate):
        u = gen.random(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta1 = np.where(span > 0, (x - lo) / span, 0.0)
            delta2 = np.where(span > 0, (hi - x) / span, 0.0)
        mpow = 1.0 / (op.eta + 1.0)
        val_low = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - delta1) ** (op.eta + 1.0)
        val_high = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - delta2) ** (
            op.eta + 1.0
        )
        deltaq = np.where(
            u <= 0.5,
            np.abs(val_low) ** mpow - 1.0,
            1.0 - np.abs(val_high) ** mpow,
        )
        x = np.where(mutate, x + deltaq * span, x)
    return problem.clip(x)


def _numpy_de(op, current, base, diff_a, diff_b, problem, gen):
    n = current.variables.size
    mutant = base.variables + op.f * (diff_a.variables - diff_b.variables)
    mask = gen.random(n) <= op.cr
    mask[int(gen.integers(n))] = True
    return problem.clip(np.where(mask, mutant, current.variables))


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestNumpyReference:
    """Each operator gives its numpy formulation's children bit for bit
    and leaves the generator in the same state."""

    @given(st.integers(0, 10_000), st.sampled_from([0.0, 1.0, 20.0]))
    @settings(max_examples=60, deadline=None)
    def test_sbx(self, seed, eta):
        problem = ZDT1(n_variables=5)
        a, b = random_solution(problem, seed), random_solution(problem, seed + 1)
        a.variables[0] = problem.lower_bounds[0]  # a parent on the box
        op = SBXCrossover(probability=0.9, eta=eta)
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        ca, cb = op.execute(a, b, problem, g1)
        ra, rb = _numpy_sbx(op, a, b, problem, g2)
        assert _same_bits(ca.variables, ra) and _same_bits(cb.variables, rb)
        assert g1.random() == g2.random()

    @given(
        st.integers(0, 10_000),
        st.sampled_from([None, 0.5, 1.0]),
        st.sampled_from([1.0, 20.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_polynomial(self, seed, probability, eta):
        problem = ZDT1(n_variables=5)
        s = random_solution(problem, seed)
        s.variables[1] = problem.upper_bounds[1]
        op = PolynomialMutation(probability=probability, eta=eta)
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        child = op.execute(s, problem, g1)
        assert _same_bits(child.variables, _numpy_polynomial(op, s, problem, g2))
        assert g1.random() == g2.random()

    @given(st.integers(0, 10_000), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_de(self, seed, cr):
        problem = ZDT1(n_variables=5)
        parents = [random_solution(problem, seed + k) for k in range(4)]
        op = DifferentialEvolutionCrossover(cr=cr, f=0.5)
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        child = op.execute(*parents, problem, g1)
        reference = _numpy_de(op, *parents, problem, g2)
        assert _same_bits(child.variables, reference)
        assert g1.random() == g2.random()

    def test_clip_values_is_np_clip(self):
        from repro.moo.problem import Problem, clip_values

        special = [-0.0, 0.0, -1.0, 1.0, 0.5, 2.0, np.nan, np.inf, -np.inf]
        for lo, hi in [(0.0, 1.0), (-0.0, 0.0), (-1.0, -0.0), (0.5, 0.5)]:
            box = Problem([lo] * len(special), [hi] * len(special), 1)
            assert _same_bits(clip_values(box, special), box.clip(np.array(special)))
        gen = np.random.default_rng(3)
        box = Problem([-1.0, 0.0, -95.0], [1.0, 5.0, -70.0], 1)
        for _ in range(200):
            values = (gen.normal(size=3) * [2.0, 6.0, 40.0] + [0, 2, -80]).tolist()
            assert _same_bits(clip_values(box, values), box.clip(np.array(values)))
