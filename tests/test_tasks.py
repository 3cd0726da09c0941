import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from swapqrn import tasks
from swapqrn.embedding import EmbeddingWeights, init_weights
from swapqrn.reservoir import ReservoirConfig
from swapqrn.tasks import (
    StmcSpec, NarmaSpec, EsnConfig,
    gen_uniform, narma5, stmc_align, run_stmc, score_stmc_features,
    run_narma, score_narma_features,
    esn_init, esn_states, run_esn_narma,
)

import oracles

RANDOM_GUESS_U01 = np.sqrt(1.0 / 12.0)


def zero_weights(c, n_mem):
    return EmbeddingWeights(w_in=np.zeros((c, n_mem, 3)),
                            w_bias=np.zeros((n_mem, 3)),
                            w_hidden=np.zeros(n_mem), seed=0)


class TestGenUniform:

    def test_range_and_determinism(self):
        a = gen_uniform(3, 1000, 0.0, 0.5)
        assert a.min() >= 0.0 and a.max() < 0.5
        assert_allclose(a, gen_uniform(3, 1000, 0.0, 0.5), rtol=0, atol=0)
        assert not np.array_equal(a, gen_uniform(4, 1000, 0.0, 0.5))

    def test_sample_mean(self):
        assert abs(gen_uniform(0, 100_000).mean() - 0.5) < 0.01

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            gen_uniform(0, 10, 1.0, 1.0)


@pytest.mark.parametrize("cls, kwargs", [
    (ReservoirConfig, dict(n_qubits=4, gamma=0.5)), (StmcSpec, {}),
    (NarmaSpec, {}), (EsnConfig, dict(n_nodes=2)),
    (init_weights, dict(c=1, n_mem=2))])
class TestSeedValidation:
    """Every seed reaches ``np.random.default_rng``, which takes only
    non-negative integers."""

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "3",
                                      [1, 2]])
    def test_rejects_bad_seed(self, cls, kwargs, seed):
        with pytest.raises(ValueError,
                           match="^seed must be a non-negative integer"):
            cls(**kwargs, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(7)])
    def test_accepts_non_negative_integer(self, cls, kwargs, seed):
        assert cls(**kwargs, seed=seed).seed == seed


class TestSpecChecks:
    """A value that must fail, or give nan, at run time is refused when the
    spec is built."""

    @pytest.mark.parametrize("cls, kwargs, match", [
        (StmcSpec, dict(alpha=-1.0), "alpha"),
        (StmcSpec, dict(alpha=0.0), "alpha"),
        (StmcSpec, dict(alpha=np.inf), "alpha"),
        (StmcSpec, dict(alpha=np.nan), "alpha"),
        (NarmaSpec, dict(alpha=-1.0), "alpha"),
        (NarmaSpec, dict(alpha=np.inf), "alpha"),
        (NarmaSpec, dict(alpha=np.nan), "alpha"),
        (EsnConfig, dict(n_nodes=2, spectral_radius=np.inf), "spectral_radius"),
        (EsnConfig, dict(n_nodes=2, spectral_radius=np.nan), "spectral_radius"),
        (StmcSpec, dict(n_total=10), "n_total"),
        (StmcSpec, dict(n_total=55, n_train=30, n_test=10), "n_total"),
        (StmcSpec, dict(n_total=54, n_train=30, n_test=10, delays=(0, -9)),
         "n_total"),
        (NarmaSpec, dict(n_total=45, n_train=40, n_test=10), "n_total"),
        (EsnConfig, dict(n_nodes=4, spectral_radius=1.7e308), "spectral_radius"),
        (EsnConfig, dict(n_nodes=4, leak_rate=5e-324), "leak_rate"),
    ], ids=["stmc-alpha-negative", "stmc-alpha-zero", "stmc-alpha-inf",
            "stmc-alpha-nan", "narma-alpha-negative", "narma-alpha-inf",
            "narma-alpha-nan", "esn-radius-inf", "esn-radius-nan",
            "stmc-series-10", "stmc-series-55", "stmc-series-54-delay-9",
            "narma-series-45", "esn-radius-overflow", "esn-leak-underflow"])
    def test_refused(self, cls, kwargs, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            cls(**kwargs)

    def test_shortest_series_leaves_one_test_sample(self):
        """The length bounds are exact: one sample fewer is refused above."""
        rng = np.random.default_rng(0)
        stmc = StmcSpec(n_total=56, n_train=30, n_test=10)
        u = gen_uniform(stmc.seed, stmc.n_total)
        result = score_stmc_features(rng.random((56, 4)), u, stmc)
        assert result.n_test_used[-10] == 1
        narma = NarmaSpec(n_total=46, n_train=40, n_test=10)
        z = gen_uniform(narma.seed, narma.n_total, 0.0, 0.5)
        assert score_narma_features(rng.random((46, 4)), z, narma).n_test_used == 1

    def test_zero_alpha_runs_the_esn(self):
        """NarmaSpec keeps alpha = 0: the ESN's tanh states are not singular."""
        spec = NarmaSpec(n_total=200, n_train=120, n_test=60, alpha=0.0)
        summary = run_esn_narma(spec, EsnConfig(n_nodes=4), n_seeds=3)
        assert np.all(np.isfinite(summary.rmse))


class TestNarma5:

    def test_oracle_hand_values_on_zero_input(self):
        y = oracles.narma5_oracle(np.zeros(8))
        assert y[0] == 0.1
        assert_allclose(y[1], 0.1305, rtol=0, atol=1e-16)

    def test_matches_independent_recursion(self):
        for seed in (0, 1, 2):
            z = gen_uniform(seed, 1000, 0.0, 0.5)
            z_al, y_al = narma5(z)
            assert_allclose(y_al, oracles.narma5_oracle(z)[5:], atol=1e-15)

    def test_alignment_and_lengths(self):
        z = gen_uniform(7, 50, 0.0, 0.5)
        z_al, y_al = narma5(z)
        assert_allclose(z_al, z[5:], rtol=0, atol=0)
        assert len(y_al) == 45

    def test_bounded_for_half_uniform_input(self):
        z = gen_uniform(11, 10_005, 0.0, 0.5)
        _, y = narma5(z)
        assert y.min() > 0.0 and y.max() < 1.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            narma5(np.zeros(5))


class TestStmcAlign:

    def test_tau_zero_identity_minus_washout(self):
        u = gen_uniform(0, 40)
        feats = np.arange(80.0).reshape(40, 2)
        rows, targets = stmc_align(feats, u, 0, n_washout=15)
        assert_allclose(rows, feats[15:], rtol=0, atol=0)
        assert_allclose(targets, u[15:], rtol=0, atol=0)

    def test_pair_count_before_washout(self):
        u = gen_uniform(1, 100)
        feats = np.zeros((100, 3))
        rows, targets = stmc_align(feats, u, -10, n_washout=0)
        assert len(rows) == len(targets) == 90

    def test_index_bookkeeping(self):
        """Emitted pair i is (features[i + washout - tau], u[i + washout])."""
        u = gen_uniform(2, 60)
        feats = np.random.default_rng(3).random((60, 2))
        for tau in (0, -3, -7):
            rows, targets = stmc_align(feats, u, tau, n_washout=15)
            for i in (0, 5, len(rows) - 1):
                assert_allclose(rows[i], feats[i + 15 - tau], rtol=0, atol=0)
                assert targets[i] == u[i + 15]

    def test_delayed_targets_are_shifted_copies(self):
        u = gen_uniform(4, 50)
        feats = np.zeros((50, 1))
        _, t0 = stmc_align(feats, u, 0, n_washout=15)
        _, t3 = stmc_align(feats, u, -3, n_washout=15)
        assert_allclose(t3, t0[: len(t3)], rtol=0, atol=0)

    def test_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            stmc_align(np.zeros((10, 1)), np.zeros(10), 1)


class TestRunStmc:

    def test_constant_features_hit_random_guess_floor(self):
        """A frozen reservoir scores at the analytic U(0,1) noise floor."""
        spec = StmcSpec()
        rc = ReservoirConfig(n_qubits=4, gamma=0.5)
        result = run_stmc(spec, rc, weights=zero_weights(1, 2))
        for tau in (-1, -4, -8):
            assert abs(result.metrics[tau].rmse - RANDOM_GUESS_U01) < 0.03

    def test_perfect_memory_features_score_one(self):
        """Features that carry delayed input copies give R^2 = 1 everywhere."""
        spec = StmcSpec()
        u = gen_uniform(spec.seed, spec.n_total)
        feats = np.zeros((spec.n_total, 11))
        for k in range(11):
            feats[k:, k] = u[: spec.n_total - k]
        result = score_stmc_features(feats, u, spec)
        for tau in spec.delays:
            assert result.metrics[tau].r2 > 0.999999
            assert result.metrics[tau].rmse < 1e-3
        assert result.mean_rmse_short < 1e-3

    def test_current_input_easily_recalled(self):
        """tau = 0 is near-trivial for a working reservoir at n_qubits = 8."""
        spec = StmcSpec()
        rc = ReservoirConfig(n_qubits=8, gamma=0.55)
        result = run_stmc(spec, rc)
        assert result.metrics[0].r2 > 0.9

    def test_split_sizes(self):
        spec = StmcSpec()
        u = gen_uniform(spec.seed, spec.n_total)
        feats = np.random.default_rng(0).random((spec.n_total, 4))
        result = score_stmc_features(feats, u, spec)
        assert result.n_train_used[0] == 700
        assert result.n_test_used[0] == 275
        assert result.n_test_used[-10] == 275

    def test_insufficient_samples_raise(self):
        u = gen_uniform(0, 300)
        with pytest.raises(ValueError):
            score_stmc_features(np.zeros((300, 2)), u, StmcSpec())


class TestRunNarma:

    def test_constant_features_hit_target_floor(self):
        """A frozen reservoir's RMSE equals the target standard deviation."""
        spec = NarmaSpec()
        rc = ReservoirConfig(n_qubits=4, gamma=0.5, c=5)
        result = run_narma(spec, rc, weights=zero_weights(5, 2))
        assert abs(result.metrics.rmse - result.target_std) / result.target_std < 0.05

    @pytest.mark.parametrize("n_qubits", [2, 4, 6])
    def test_zero_alpha_refused_before_the_reservoir_runs(self, monkeypatch,
                                                          n_qubits):
        """Reservoir rows sum to 1, so alpha = 0 leaves the centred design
        singular: refused before any feature is computed, at every size."""
        def run_features(*args, **kwargs):
            raise AssertionError("the reservoir ran")
        monkeypatch.setattr(tasks, "run_features", run_features)
        rc = ReservoirConfig(n_qubits=n_qubits, gamma=0.5, c=5)
        with pytest.raises(ValueError,
                           match=r"^alpha must be finite and > 0, got 0\.0$"):
            run_narma(NarmaSpec(alpha=0.0), rc)

    def test_split_sizes_and_floor_value(self):
        spec = NarmaSpec()
        z = gen_uniform(spec.seed, spec.n_total, 0.0, 0.5)
        feats = np.random.default_rng(1).random((spec.n_total, 4))
        result = score_narma_features(feats, z, spec)
        assert result.n_train_used == 735
        assert result.n_test_used == 245
        _, y = narma5(z)
        assert_allclose(result.target_std, np.std(y[750:995]), rtol=1e-12)

    def test_no_leakage_between_slices(self):
        """Fitting on the test slice instead of train changes the score."""
        spec = NarmaSpec()
        z = gen_uniform(spec.seed, spec.n_total, 0.0, 0.5)
        rng = np.random.default_rng(2)
        feats = rng.random((spec.n_total, 6))
        a = score_narma_features(feats, z, spec)
        flipped = score_narma_features(feats[::-1].copy(), z[::-1].copy(), spec)
        assert a.metrics.rmse != flipped.metrics.rmse

    def test_small_reservoir_beats_floor(self):
        spec = NarmaSpec()
        rc = ReservoirConfig(n_qubits=8, gamma=0.75, n_repeats=3, c=5)
        result = run_narma(spec, rc)
        assert result.metrics.rmse < result.target_std


class TestEsn:

    def test_spectral_radius_rescaled(self):
        for seed in range(50):
            w, _ = esn_init(EsnConfig(n_nodes=8), np.random.default_rng(seed))
            assert abs(oracles.spectral_radius_arpack(w) - 0.9) < 1e-9

    def test_degenerate_update_is_tanh(self):
        u = gen_uniform(0, 20)
        states = esn_states(u, np.zeros((1, 1)), np.ones(1), leak_rate=1.0)
        assert_allclose(states[:, 0], np.tanh(u), atol=1e-14)

    def test_echo_state_contraction(self):
        cfg = EsnConfig(n_nodes=8)
        rng = np.random.default_rng(5)
        w, w_in = esn_init(cfg, rng)
        u = gen_uniform(6, 200, 0.0, 0.5)
        h0 = rng.uniform(-1, 1, 8)
        a = esn_states(u, w, w_in, 0.5)
        b = esn_states(u, w, w_in, 0.5, h0=h0)
        assert np.max(np.abs(a[-1] - b[-1])) < 1e-6

    @pytest.mark.parametrize("with_h0", [False, True])
    @pytest.mark.parametrize("n_seeds", [1, 7])
    @pytest.mark.parametrize("n_nodes", range(1, 9))
    def test_stacked_equals_per_seed_calls(self, n_nodes, n_seeds, with_h0):
        rng = np.random.default_rng([n_nodes, n_seeds])
        draws = [esn_init(EsnConfig(n_nodes=n_nodes), rng)
                 for _ in range(n_seeds)]
        w = np.stack([d[0] for d in draws])
        w_in = np.stack([d[1] for d in draws])
        h0 = rng.uniform(-1, 1, (n_seeds, n_nodes)) if with_h0 else None
        u = gen_uniform(n_nodes, 60, 0.0, 0.5)
        stacked = esn_states(u, w, w_in, 0.5, h0=h0)
        assert stacked.shape == (60, n_seeds, n_nodes)
        for k in range(n_seeds):
            single = esn_states(u, w[k], w_in[k], 0.5,
                                h0=None if h0 is None else h0[k])
            assert np.array_equal(stacked[:, k], single)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EsnConfig(n_nodes=0)
        with pytest.raises(ValueError):
            EsnConfig(n_nodes=2, leak_rate=0.0)
        with pytest.raises(ValueError):
            EsnConfig(n_nodes=2, spectral_radius=-0.1)


class TestRunEsnNarma:

    def test_distinct_rmse_per_seed(self):
        spec = NarmaSpec()
        summary = run_esn_narma(spec, EsnConfig(n_nodes=4), n_seeds=25)
        assert len(summary.rmse) == 25
        assert len(np.unique(summary.rmse)) == 25
        assert summary.q1 <= summary.median <= summary.q3

    def test_run_esn_narma_deterministic(self):
        spec = NarmaSpec(n_total=200, n_train=120, n_test=60)
        a = run_esn_narma(spec, EsnConfig(n_nodes=4), n_seeds=5)
        b = run_esn_narma(spec, EsnConfig(n_nodes=4), n_seeds=5)
        assert np.array_equal(a.rmse, b.rmse)

    @pytest.mark.parametrize("n_nodes", [1, 4, 8])
    def test_equals_per_seed_loop(self, n_nodes):
        spec, cfg = NarmaSpec(), EsnConfig(n_nodes=n_nodes)
        summary = run_esn_narma(spec, cfg, n_seeds=25)
        assert np.array_equal(summary.rmse,
                              oracles.run_esn_narma_per_seed(spec, cfg, 25))

    def test_over_memory_refused_before_drawing(self, monkeypatch):
        """200 seeds of 4 nodes over 1,000 steps hold 6.5 MB of states and
        weights; with 1 MiB of physical memory they are refused unseeded."""
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        drawn = []
        monkeypatch.setattr(tasks, "esn_init",
                            lambda cfg, rng: drawn.append(rng))
        with pytest.raises(ValueError, match="physical memory"):
            run_esn_narma(NarmaSpec(), EsnConfig(n_nodes=4), n_seeds=200)
        assert drawn == []

    def test_zero_alpha_above_unit_radius_refused_before_drawing(
            self, monkeypatch):
        """At alpha = 0 a saturated tanh node makes the design singular, so
        a radius past 1 is refused before any seed is drawn."""
        drawn = []
        monkeypatch.setattr(tasks, "esn_init",
                            lambda cfg, rng: drawn.append(rng))
        spec = NarmaSpec(alpha=0.0, n_total=60, n_train=40, n_test=10,
                         n_washout=5, seed=9)
        with pytest.raises(ValueError, match="alpha = 0 needs spectral_radius"):
            run_esn_narma(spec, EsnConfig(n_nodes=2, spectral_radius=10, seed=9), 2)
        assert drawn == []

    def test_zero_alpha_needs_more_rows_than_nodes(self, monkeypatch):
        """At alpha = 0, n_train - n_washout = 8 centred rows have rank at
        most 7, too few for 8 nodes: refused before any seed is drawn.
        One row more passes the check."""
        drawn = []
        monkeypatch.setattr(tasks, "esn_init",
                            lambda cfg, rng: drawn.append(rng))
        spec = NarmaSpec(alpha=0.0, n_total=60, n_train=12, n_test=10,
                         n_washout=4)
        with pytest.raises(ValueError, match="n_train - n_washout > n_nodes"):
            run_esn_narma(spec, EsnConfig(n_nodes=8), 2)
        assert drawn == []
        tasks.check_esn_alpha(spec, EsnConfig(n_nodes=7))

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
            run_esn_narma(NarmaSpec(), EsnConfig(n_nodes=4), n_seeds=0)

    def test_one_target_recursion_per_call(self, monkeypatch):
        """Every seed is scored against the same NARMA-5 targets, computed
        once per call."""
        calls = []

        def counted(z):
            calls.append(len(z))
            return narma5(z)

        monkeypatch.setattr(tasks, "narma5", counted)
        run_esn_narma(NarmaSpec(), EsnConfig(n_nodes=2), n_seeds=4)
        assert calls == [NarmaSpec().n_total]

    def test_larger_esn_beats_floor(self):
        spec = NarmaSpec()
        _, y = narma5(gen_uniform(spec.seed, spec.n_total, 0.0, 0.5))
        floor = float(np.std(y[750:995]))
        summary = run_esn_narma(spec, EsnConfig(n_nodes=4), n_seeds=10)
        assert np.all(summary.rmse <= 1.05 * floor)
