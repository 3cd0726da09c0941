import numpy as np
import pytest
from numpy.testing import assert_allclose

from swapqrn import readout
from swapqrn.readout import (
    RidgeModel, Metrics, blas_thread_count, blas_threads, ridge_fit, predict,
    r_squared, rmse, mean_rmse_short, set_blas_threads,
)

import oracles


class TestRidgeFit:

    def test_matches_normal_equation_oracle(self):
        """Centered solver agrees with the explicit augmented normal equations,
        up to the STMC readout's 256 collinear probability columns, on both
        the primal (n >= k) and the dual (n < k) path."""
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(200):
            n = int(rng.integers(8, 40))
            k = int(rng.integers(1, 7))
            cases.append((rng.normal(size=(n, k)), rng.normal(size=n),
                          float(10.0 ** rng.uniform(-8, 1))))
        # more columns than rows: below alpha = 1e-4 the oracle's own
        # (k + 1)-square normal equations lose the digits (5.8e-7 off an
        # lstsq solve at 1e-8, where ridge_fit is 8.7e-12 off)
        for _ in range(200):
            n = int(rng.integers(8, 40))
            k = int(rng.integers(n + 1, 65))
            cases.append((rng.normal(size=(n, k)), rng.normal(size=n),
                          float(10.0 ** rng.uniform(-4, 1))))
        # 16 qubits: rows are readout distributions, which sum to 1; the
        # paper's 700 training rows, and the benchmark's stmc16 and
        # narma12-sweep training blocks
        for n, k, alpha in ((700, 256, 1e-5), (100, 256, 1e-5), (49, 64, 1e-4)):
            cases.append((rng.dirichlet(np.ones(k), size=n),
                          rng.uniform(size=n), alpha))
        for x, y, alpha in cases:
            model = ridge_fit(x, y, alpha)
            w_ref, b_ref = oracles.ridge_oracle(x, y, alpha)
            assert_allclose(model.w, w_ref, atol=1e-8)
            assert_allclose(model.b, b_ref, atol=1e-8)
            assert_allclose(predict(model, x), x @ w_ref + b_ref, atol=1e-8)

    def test_recovers_exact_linear_map(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 4))
        w_true = np.array([0.5, -1.25, 2.0, 0.0])
        y = x @ w_true + 3.5
        model = ridge_fit(x, y, alpha=0.0)
        assert_allclose(model.w, w_true, atol=1e-10)
        assert_allclose(model.b, 3.5, atol=1e-10)
        assert_allclose(predict(model, x), y, atol=1e-10)

    def test_intercept_not_penalized(self):
        """A constant shift of the targets moves only the intercept."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        m0 = ridge_fit(x, y, alpha=10.0)
        m1 = ridge_fit(x, y + 100.0, alpha=10.0)
        assert_allclose(m1.w, m0.w, atol=1e-9)
        assert_allclose(m1.b, m0.b + 100.0, atol=1e-9)

    def test_minimizes_regularized_objective(self):
        """Perturbing the solution never lowers the penalized loss."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        alpha = 0.3
        model = ridge_fit(x, y, alpha)

        def loss(w, b):
            r = y - x @ w - b
            return r @ r + alpha * (w @ w)

        base = loss(model.w, model.b)
        for _ in range(60):
            dw = rng.normal(size=5) * 1e-3
            db = rng.normal() * 1e-3
            assert loss(model.w + dw, model.b + db) >= base - 1e-12

    def test_primal_path_keeps_its_bits(self):
        """With at least as many rows as columns the k x k normal equations
        are solved exactly as before the dual path existed, so paper-scale
        fits (700 x 256) and the ESN's keep their bits."""
        rng = np.random.default_rng(7)
        cases = [(rng.dirichlet(np.ones(256), size=700),
                  rng.uniform(size=700), 1e-5),
                 (rng.dirichlet(np.ones(64), size=64), rng.uniform(size=64),
                  1e-4),
                 (np.tanh(rng.normal(size=(735, 8))), rng.uniform(size=735),
                  0.0)]
        for _ in range(50):
            k = int(rng.integers(1, 30))
            n = int(rng.integers(k, 60))
            cases.append((rng.normal(size=(n, k)), rng.normal(size=n),
                          float(10.0 ** rng.uniform(-6, 1))))
        for x, y, alpha in cases:
            model = ridge_fit(x, y, alpha)
            w_ref, b_ref = oracles.ridge_primal(x, y, alpha)
            assert np.array_equal(model.w, w_ref)
            assert model.b == b_ref

    def test_singular_unregularized_raises(self):
        """At alpha = 0 a rank-deficient design raises: a constant one; tall
        ones whose rows all sum to 1, as reservoir rows do, which have the
        ones vector in their centred null space (about half of them factor
        without complaint); and a square and random wide ones, which also
        factor but have rank at most n - 1 < k once centred, so are refused
        by count.  A ridge term at most eps * trace of the centred Gram
        matrix is lost in its rounding and counts as none: the rows summing
        to 1 raise at 1e-300, 1e-30 and half that bound too.  Regularized,
        each fits, as does one row more than columns at 0."""
        rng = np.random.default_rng(0)
        designs = [np.ones((10, 3)), rng.normal(size=(3, 3))]
        simplex = [rng.dirichlet(np.ones(5), size=40) for _ in range(10)]
        designs += simplex
        for _ in range(100):
            n = int(rng.integers(2, 30))
            designs.append(rng.normal(size=(n, int(rng.integers(n, 60)))))
        for x in designs:
            y = rng.normal(size=len(x))
            with pytest.raises(np.linalg.LinAlgError):
                ridge_fit(x, y, alpha=0.0)
            ridge_fit(x, y, alpha=1e-6)  # regularized version is fine
        for x in simplex:
            xc = x - x.mean(axis=0)
            bound = np.finfo(float).eps * np.trace(xc.T @ xc)
            for alpha in (1e-300, 1e-30, bound / 2):
                with pytest.raises(np.linalg.LinAlgError):
                    ridge_fit(x, rng.normal(size=len(x)), alpha=alpha)
        ridge_fit(rng.normal(size=(4, 3)), rng.normal(size=4), alpha=0.0)

    def test_shape_validation(self):
        """Input that has no fit is refused, not turned into nan or 0: a
        length mismatch, a negative, nan or infinite alpha, a non-finite x
        or y, and an empty design."""
        good_x, good_y = np.eye(5, 2), np.arange(5.0)
        cases = [(np.zeros((5, 2)), np.zeros(4), 1.0),
                 (np.zeros((5, 2)), np.zeros(5), -1.0),
                 (good_x, good_y, np.nan),
                 (good_x, good_y, np.inf),
                 (np.where(good_x, np.nan, 1.0), good_y, 1.0),
                 (good_x, np.where(good_y == 3, np.nan, good_y), 1.0),
                 (good_x, np.where(good_y == 3, np.inf, good_y), 1.0),
                 (np.zeros((0, 2)), np.zeros(0), 1.0)]
        for x, y, alpha in cases:
            with pytest.raises(ValueError):
                ridge_fit(x, y, alpha)
        ridge_fit(good_x, good_y, 1.0)


class TestMetrics:

    def test_r_squared_perfect_prediction(self):
        y = np.random.default_rng(0).normal(size=200)
        assert_allclose(r_squared(y, y), 1.0, atol=1e-12)
        assert_allclose(r_squared(2.0 * y + 1.0, y), 1.0, atol=1e-12)

    def test_r_squared_independent_near_zero(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=1000)
        b = rng.normal(size=1000)
        assert r_squared(a, b) < 0.05

    def test_r_squared_zero_variance_is_nan(self):
        y = np.random.default_rng(5).normal(size=50)
        assert np.isnan(r_squared(np.ones(50), y))
        assert np.isnan(r_squared(y, np.zeros(50)))

    def test_r_squared_at_most_one(self):
        """Two samples correlate perfectly; the quotient rounds above 1 for
        2,747 of these 10,000 pairs."""
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            pred, target = rng.random(2), rng.random(2)
            assert r_squared(pred, target) <= 1.0

    def test_r_squared_is_squared_correlation(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(size=300)
        target = 0.6 * pred + rng.normal(size=300)
        r = np.corrcoef(pred, target)[0, 1]
        assert_allclose(r_squared(pred, target), r * r, atol=1e-12)

    def test_rmse(self):
        assert_allclose(rmse(np.array([1.0, 2.0]), np.array([1.0, 0.0])), np.sqrt(2.0))
        assert rmse(np.zeros(5), np.zeros(5)) == 0.0

    def test_mean_rmse_short(self):
        per_delay = {0: Metrics(r2=1.0, rmse=0.1)}
        for d, v in zip(range(-1, -5, -1), (0.2, 0.3, 0.4, 0.5)):
            per_delay[d] = Metrics(r2=0.5, rmse=v)
        per_delay[-9] = Metrics(r2=0.0, rmse=9.9)
        assert_allclose(mean_rmse_short(per_delay), 0.3)

    def test_mean_rmse_short_requires_all_five(self):
        with pytest.raises(ValueError):
            mean_rmse_short({0: Metrics(1.0, 0.1), -1: Metrics(1.0, 0.1)})


class TestBlasThreads:

    def test_sets_and_restores_the_count(self):
        """Inside the block the process runs at the given count; on exit,
        also by an exception, it runs at the count it had."""
        before = blas_thread_count()
        if before is None:
            pytest.skip("no OpenBLAS thread setter in this numpy build")
        for n in (1, 2):
            with blas_threads(n):
                assert blas_thread_count() == n
            assert blas_thread_count() == before
        with pytest.raises(ZeroDivisionError), blas_threads(1 + (before == 1)):
            1 / 0
        assert blas_thread_count() == before

    def test_no_setter_changes_nothing(self, monkeypatch):
        """Where no setter is found the block runs unpinned."""
        monkeypatch.setattr(readout, "_openblas", lambda: None)
        assert blas_thread_count() is None
        assert set_blas_threads(1) is None
        with blas_threads(1):
            assert blas_thread_count() is None
