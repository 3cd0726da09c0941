import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from swapqrn import channel, reservoir
from swapqrn.channel import (
    collapse_workspace, collapse_workspace_bytes, damping_channel,
    ground_state, outcome_distribution, rehermitize,
)
from swapqrn.embedding import (
    EmbeddingWeights, init_weights, context_window, compute_angles,
    embedding_unitary,
)
from swapqrn.reservoir import (
    CHUNK, ReservoirConfig, check_memory, step, run_exact, run_sampled,
    run_trajectories, run_features, bitstring_labels, features_to_csv,
    features_from_csv,
)

import oracles


def zero_weights(c, n_mem):
    return EmbeddingWeights(w_in=np.zeros((c, n_mem, 3)),
                            w_bias=np.zeros((n_mem, 3)),
                            w_hidden=np.zeros(n_mem), seed=0)


class TestReservoirConfig:

    def test_n_mem_is_half(self):
        assert ReservoirConfig(n_qubits=12, gamma=0.5).n_mem == 6

    def test_rejects_odd_or_small(self):
        for nq in (0, 1, 3, 7):
            with pytest.raises(ValueError):
                ReservoirConfig(n_qubits=nq, gamma=0.5)

    def test_rejects_bad_gamma(self):
        for g in (0.0, -1.0, 1.2):
            with pytest.raises(ValueError):
                ReservoirConfig(n_qubits=4, gamma=g)

    def test_stochastic_backends_need_shots(self):
        with pytest.raises(ValueError):
            ReservoirConfig(n_qubits=4, gamma=0.5, backend="sampled")
        with pytest.raises(ValueError):
            ReservoirConfig(n_qubits=4, gamma=0.5, backend="trajectory",
                            n_shots=0)
        ReservoirConfig(n_qubits=4, gamma=0.5, backend="sampled", n_shots=100)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ReservoirConfig(n_qubits=4, gamma=0.5, backend="magic")

    @pytest.mark.parametrize("field,value", [
        ("n_qubits", 4.0), ("n_qubits", True), ("n_qubits", "4"),
        ("n_repeats", 1.5), ("n_repeats", np.float64(2.0)), ("c", True),
        ("c", np.bool_(True)), ("n_shots", 2.5), ("n_shots", False)])
    def test_rejects_non_integer_sizes(self, field, value):
        kwargs = dict(n_qubits=4, gamma=0.5, backend="sampled", n_shots=10)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ReservoirConfig(**{**kwargs, field: value})

    def test_numpy_integer_sizes_accepted(self):
        cfg = ReservoirConfig(n_qubits=np.int64(4), gamma=0.5,
                              n_repeats=np.int32(2), c=np.uint8(3),
                              backend="trajectory", n_shots=np.int64(5))
        assert cfg.n_mem == 2


class TestStep:

    def test_full_swap_bitflip_round(self):
        """gamma=1, one qubit, rx(pi) embedding: outcome (0, 1), state resets."""
        w = EmbeddingWeights(w_in=np.zeros((1, 1, 3)),
                             w_bias=np.array([[np.pi, 0.0, 0.0]]),
                             w_hidden=np.zeros(1), seed=0)
        cfg = ReservoirConfig(n_qubits=2, gamma=1.0)
        rho, dist = step(ground_state(1), np.array([0.0]), w, cfg)
        assert_allclose(dist, [0.0, 1.0], atol=1e-12)
        assert_allclose(rho, ground_state(1), atol=1e-12)

    def test_non_hermitian_state_refused(self):
        """The kernel relies on rho = rho^+; a skewed input is refused."""
        rho = oracles.random_density(np.random.default_rng(4), 4)
        rho[0, 1] += 1e-8
        w, cfg = init_weights(1, c=1, n_mem=2), ReservoirConfig(n_qubits=4, gamma=0.4)
        with pytest.raises(ValueError, match=r"Hermiticity residual 1\.000e-08 "
                                             r"of the input state exceeds 1e-10"):
            step(rho, np.array([0.3]), w, cfg)
        rho[0, 1] -= 1e-8
        step(rho, np.array([0.3]), w, cfg)

    def test_fortran_ordered_state(self):
        """A transposed (Fortran-ordered) input steps as its C-ordered copy."""
        rho = oracles.random_density(np.random.default_rng(5), 8).T
        w, cfg = init_weights(2, c=1, n_mem=3), ReservoirConfig(n_qubits=6, gamma=0.4)
        a = step(rho, np.array([0.3]), w, cfg)
        b = step(np.ascontiguousarray(rho), np.array([0.3]), w, cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_distribution_is_pre_channel(self):
        """The returned row is the readout law of the post-embedding state."""
        rng = np.random.default_rng(3)
        w = init_weights(5, c=1, n_mem=2)
        cfg = ReservoirConfig(n_qubits=4, gamma=0.4)
        rho0 = oracles.random_density(rng, 4)
        theta = compute_angles(np.array([0.3]), w)
        u = embedding_unitary(theta, w.w_hidden, 1)
        rho1 = u @ rho0 @ u.conj().T
        _, dist = step(rho0, np.array([0.3]), w, cfg)
        assert_allclose(dist, outcome_distribution(rho1, 0.4), atol=1e-13)


class TestFactoredKernel:
    """The factored kernel against the dense U rho U^+ step it replaced."""

    @pytest.mark.parametrize("n_repeats", [1, 2, 3])
    @pytest.mark.parametrize("n_mem", [1, 2, 3, 4, 5, 6])
    def test_matches_dense_recursion(self, n_mem, n_repeats):
        """300 steps of the two products around rho's adjoint, against the
        dense U rho U^+ recursion left unrepaired; odd n_mem has d_hi != d_lo."""
        cfg = ReservoirConfig(n_qubits=2 * n_mem, gamma=0.3,
                              n_repeats=n_repeats, c=2, seed=n_mem)
        w = init_weights(cfg.seed, c=2, n_mem=n_mem)
        u = np.random.default_rng(n_mem + 10 * n_repeats).random(300)
        rows = run_exact(u, w, cfg)
        rho = ground_state(n_mem)
        for t in range(len(u)):
            rho, dist = oracles.dense_step(rho, context_window(u, t, 2), w, cfg)
            assert np.max(np.abs(rows[t] - dist)) <= 1e-12

    @pytest.mark.parametrize("n_repeats", [1, 3])
    def test_features_independent_of_blas_threads(self, n_repeats):
        """At 16 qubits the features of two fresh interpreters, one with one
        OpenBLAS thread and one with two, are byte-identical."""
        src = os.path.dirname(os.path.dirname(reservoir.__file__))
        code = (
            "import hashlib, numpy as np\n"
            "from swapqrn import ReservoirConfig, init_weights, run_exact\n"
            f"cfg = ReservoirConfig(n_qubits=16, gamma=0.55, n_repeats={n_repeats})\n"
            "u = np.random.default_rng(8).random(40)\n"
            "w = init_weights(cfg.seed, cfg.c, cfg.n_mem)\n"
            "print(hashlib.sha256(run_exact(u, w, cfg).tobytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            digests.append(subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True).stdout)
        assert digests[0] == digests[1] and len(digests[0]) == 65

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("n_repeats", [1, 2, 3])
    @pytest.mark.parametrize("n_mem", [1, 2, 3, 4, 5])
    def test_matches_dense_step(self, n_mem, n_repeats, c):
        cfg = ReservoirConfig(n_qubits=2 * n_mem, gamma=0.4, n_repeats=n_repeats,
                              c=c, seed=n_mem)
        w = init_weights(cfg.seed, c=c, n_mem=n_mem)
        rng = np.random.default_rng(n_mem + 10 * n_repeats + 100 * c)
        u = rng.random(12)
        rows = run_exact(u, w, cfg)
        rho = ground_state(n_mem)
        for t in range(len(u)):
            rho, dist = oracles.dense_step(rho, context_window(u, t, c), w, cfg)
            rho = rehermitize(rho)
            assert np.max(np.abs(rows[t] - dist)) <= 1e-12
        rho0 = oracles.random_density(rng, 2 ** n_mem)
        x = rng.random(c)
        state, dist = step(rho0, x, w, cfg)
        ref_state, ref_dist = oracles.dense_step(rho0, x, w, cfg)
        assert np.max(np.abs(state - ref_state)) <= 1e-12
        assert np.max(np.abs(dist - ref_dist)) <= 1e-12


    @pytest.mark.parametrize("gamma", [0.05, 0.55, 1.0])
    @pytest.mark.parametrize("n_repeats", [1, 3])
    @pytest.mark.parametrize("n_mem", [3, 5])
    def test_long_horizon_matches_dense_step(self, n_mem, n_repeats, gamma):
        """1,000 fused steps, each damping scaling folded into the next
        rotation, stay on the dense recursion and never trip a check."""
        cfg = ReservoirConfig(n_qubits=2 * n_mem, gamma=gamma,
                              n_repeats=n_repeats, seed=n_mem + n_repeats)
        w = init_weights(cfg.seed, c=1, n_mem=n_mem)
        u = np.random.default_rng(n_mem * n_repeats).random(1000)
        rows = run_exact(u, w, cfg)
        rho = ground_state(n_mem)
        for t in range(len(u)):
            rho, dist = oracles.dense_step(rho, context_window(u, t, 1), w, cfg)
            rho = rehermitize(rho)
            assert np.max(np.abs(rows[t] - dist)) <= 1e-12

    @pytest.mark.parametrize("n_repeats", [1, 2])
    def test_step_is_damping_of_embedded_state(self, n_repeats):
        """step() scales its state explicitly: it returns the fully damped
        post-embedding state and leaves its input untouched."""
        rng = np.random.default_rng(12)
        w = init_weights(6, c=2, n_mem=3)
        cfg = ReservoirConfig(n_qubits=6, gamma=0.35, n_repeats=n_repeats, c=2)
        rho0 = oracles.random_density(rng, 8)
        before = rho0.copy()
        x = rng.random(2)
        u = embedding_unitary(compute_angles(x, w), w.w_hidden, n_repeats)
        state, _ = step(rho0, x, w, cfg)
        assert np.max(np.abs(state - damping_channel(u @ rho0 @ u.conj().T,
                                                     0.35))) <= 1e-13
        assert np.array_equal(rho0, before)


class TestPerRunGateStacks:
    """The gates built once per run repeat the per-step build bit for bit."""

    @pytest.mark.parametrize("n_qubits,n_repeats,c", [
        (2, 1, 1), (4, 2, 2), (12, 1, 5), (12, 3, 5), (16, 1, 1)])
    def test_equals_per_step_loop(self, n_qubits, n_repeats, c):
        cfg = ReservoirConfig(n_qubits=n_qubits, gamma=0.55,
                              n_repeats=n_repeats, c=c)
        w = init_weights(3, c=c, n_mem=cfg.n_mem)
        u = np.random.default_rng(n_qubits).uniform(0, 1, 25)
        assert np.array_equal(run_exact(u, w, cfg),
                              oracles.run_exact_per_step(u, w, cfg))


class TestHealthChecks:
    """run_exact checks the held state instead of repairing it."""

    CFG = ReservoirConfig(n_qubits=4, gamma=0.05)

    def test_trace_drift_raises(self, monkeypatch):
        drifted = (1.0 + 1e-8) * ground_state(2)
        monkeypatch.setattr(reservoir, "ground_state", lambda n: drifted)
        with pytest.raises(FloatingPointError,
                           match=r"trace drift 1\.000e-08 at step 0 exceeds 1e-10"):
            run_exact(np.zeros(3), init_weights(1, c=1, n_mem=2), self.CFG)

    def test_skewed_state_raises(self, monkeypatch):
        skewed = ground_state(2)
        skewed[0, 1] = skewed[1, 0] = 1e-6j  # anti-Hermitian, trace unchanged
        monkeypatch.setattr(reservoir, "ground_state", lambda n: skewed)
        with pytest.raises(FloatingPointError,
                           match=r"Hermiticity residual .* at step 2 exceeds"):
            run_exact(np.zeros(3), init_weights(1, c=1, n_mem=2), self.CFG)


class TestMemoryCheck:
    """Estimated only: nothing of the refused size is ever allocated."""

    def test_estimate_small_run(self):
        cfg = ReservoirConfig(n_qubits=4, gamma=0.5)
        rotations = 256 * 10 * 2  # every step's factors and rotation stack
        held = 3 * 16 * 16 + 2 ** 18  # rho, two work buffers, ufunc buffers
        stacks = 16 * 10 * (2 ** 2 + 2 ** 2)  # one (hi, lo) gate-stack pair
        assert check_memory(cfg, 10) == (
            rotations + held + stacks + 8 * 16 + 8 * 10 * 4 + 2 ** 18)
        assert check_memory(replace(cfg, n_repeats=3), 10) == (
            rotations + held + 2 * stacks + 8 * 16 + 8 * 10 * 4 + 2 ** 18)
        assert check_memory(replace(cfg, backend="sampled", n_shots=5), 10) == (
            rotations + held + stacks + 8 * 16 + 4 * 8 * 10 * 4 + 2 ** 18)
        odd = replace(cfg, n_qubits=6)  # d_hi = 4, d_lo = 2
        assert check_memory(odd, 10) == (
            256 * 10 * 3 + 3 * 16 * 64 + 2 ** 18 + 16 * 10 * (4 ** 2 + 2 ** 2)
            + 8 * 64 + 8 * 10 * 8 + 2 ** 18)
        traj = replace(cfg, backend="trajectory", n_shots=CHUNK + 1)
        assert check_memory(traj, 10) == (
            rotations + 8 * CHUNK * 10 * 2 + 1024 * CHUNK + 24 * 16
            + 4 * 16 * 16 + 2 * 8 * 10 * 4 + 2 ** 18)
        wide = replace(traj, n_qubits=12)  # the step arrays outgrow 1 KiB/row
        assert check_memory(wide, 10) == (
            256 * 10 * 6 + 8 * CHUNK * 10 * 6
            + collapse_workspace_bytes(CHUNK, 6) + 2 * 16 * CHUNK * 64
            + 64 * CHUNK + 24 * 64 ** 2 + 4 * 16 * 64 ** 2 + 2 * 8 * 10 * 64
            + 2 ** 18)

    @pytest.mark.parametrize("m,n", [(1, 1), (7, 3), (50, 6)])
    def test_workspace_bytes_match_allocation(self, m, n):
        ws = collapse_workspace(m, n)
        assert collapse_workspace_bytes(m, n) == sum(b.nbytes for b in ws.values())

    @pytest.mark.parametrize("n_repeats", [1, 3])
    @pytest.mark.parametrize("n_qubits,backend,chunk", [
        pytest.param(12, "exact", CHUNK, id="12-exact"),
        pytest.param(16, "exact", CHUNK, id="16-exact"),
        pytest.param(12, "sampled", CHUNK, id="12-sampled"),
        pytest.param(8, "trajectory", CHUNK, id="8-trajectory"),
        pytest.param(12, "trajectory", CHUNK, id="12-trajectory"),
        pytest.param(8, "trajectory", 128, id="8-trajectory-chunk128"),
        pytest.param(12, "trajectory", 128, id="12-trajectory-chunk128")])
    def test_traced_peak_within_estimate(self, monkeypatch, n_qubits, backend,
                                         chunk, n_repeats):
        """At chunk 128 the 300 shots run as chunks of 128, 128 and 44, and
        the estimate counts one chunk's arrays: a chunk loop that held two
        chunks' arrays at once would exceed it."""
        monkeypatch.setattr(reservoir, "CHUNK", chunk)
        cfg = ReservoirConfig(n_qubits=n_qubits, gamma=0.55,
                              n_repeats=n_repeats, backend=backend,
                              n_shots=None if backend == "exact" else 300)
        u = np.random.default_rng(1).random(30)
        w = init_weights(1, c=1, n_mem=cfg.n_mem)
        # numpy's lazy first-use imports belong to no run: warm them on 2 qubits
        run_features(u[:2], init_weights(1, c=1, n_mem=1),
                     replace(cfg, n_qubits=2))
        tracemalloc.start()
        try:
            run_features(u, w, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= check_memory(cfg, len(u))

    def test_exact_refused_before_allocating(self):
        cfg = ReservoirConfig(n_qubits=48, gamma=0.5, n_shots=10)
        w = init_weights(1, c=1, n_mem=24)
        for backend in ("exact", "sampled"):
            with pytest.raises(ValueError, match="physical memory"):
                run_features(np.zeros(5), w, replace(cfg, backend=backend))

    def test_no_povm_matrix_outlives_its_run(self, monkeypatch):
        """A serial gamma sweep keeps no POVM matrix of a finished run."""
        built = []

        def povm_matrix(gamma, n):
            m = channel.povm_matrix(gamma, n)
            built.append(weakref.ref(m))
            return m

        monkeypatch.setattr(reservoir, "povm_matrix", povm_matrix)
        w = init_weights(1, c=1, n_mem=3)
        for gamma in (0.15, 0.3, 0.45, 0.6):
            run_exact(np.full(4, 0.5), w, ReservoirConfig(n_qubits=6, gamma=gamma))
        assert len(built) == 4
        assert [ref() for ref in built] == [None] * 4

    def test_trajectory_refused_before_spawning(self):
        cfg = ReservoirConfig(n_qubits=48, gamma=0.5, n_shots=10,
                              backend="trajectory")
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="physical memory"):
            run_trajectories(np.zeros(5), init_weights(1, c=1, n_mem=24), cfg, rng)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0


class TestRunExactAgainstJointRegister:

    def test_matches_brute_force(self):
        """Reduced recursion = full joint-register evolution, 3 random embeddings."""
        for seed in (1, 2, 3):
            for n_qubits in (2, 4, 6):
                n_mem = n_qubits // 2
                cfg = ReservoirConfig(n_qubits=n_qubits, gamma=0.45, c=2,
                                      n_repeats=2, seed=seed)
                w = init_weights(seed, c=2, n_mem=n_mem)
                u = np.random.default_rng(seed).random(10)
                rows = run_exact(u, w, cfg)

                rho_mem = ground_state(n_mem)
                for t in range(10):
                    theta = compute_angles(context_window(u, t, 2), w)
                    emb = embedding_unitary(theta, w.w_hidden, 2)
                    rho_mem = emb @ rho_mem @ emb.conj().T
                    probs, rho_mem = oracles.joint_measure_and_reset(rho_mem, 0.45)
                    assert np.max(np.abs(rows[t] - probs)) <= 1e-10

    def test_rows_are_distributions(self):
        cfg = ReservoirConfig(n_qubits=6, gamma=0.35)
        w = init_weights(42, c=1, n_mem=3)
        rows = run_exact(np.random.default_rng(0).random(100), w, cfg)
        assert rows.shape == (100, 8)
        assert rows.min() >= 0.0
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9

    def test_deterministic(self):
        cfg = ReservoirConfig(n_qubits=4, gamma=0.7, n_repeats=3)
        w = init_weights(7, c=1, n_mem=2)
        u = np.random.default_rng(1).random(30)
        assert_allclose(run_exact(u, w, cfg), run_exact(u, w, cfg),
                        rtol=0, atol=0)

    def test_weight_config_mismatch_rejected(self):
        cfg = ReservoirConfig(n_qubits=4, gamma=0.5, c=2)
        with pytest.raises(ValueError):
            run_exact(np.zeros(5), init_weights(1, c=1, n_mem=2), cfg)
        with pytest.raises(ValueError):
            run_exact(np.zeros(5), init_weights(1, c=2, n_mem=3), cfg)


class TestFadingMemory:

    def test_contraction_at_stated_rate_identity_embedding(self):
        """With an identity embedding the row gap scales as (1-p)^t exactly."""
        cfg = ReservoirConfig(n_qubits=4, gamma=0.5)
        w = zero_weights(1, 2)
        u = np.zeros(30)
        rho_a = ground_state(2)
        rho_b = np.zeros((4, 4), dtype=complex)
        rho_b[3, 3] = 1.0  # |11><11|
        gaps = []
        for t in range(30):
            x = context_window(u, t, 1)
            rho_a, row_a = step(rho_a, x, w, cfg)
            rho_b, row_b = step(rho_b, x, w, cfg)
            gaps.append(np.max(np.abs(row_a - row_b)))
        # ceil(log 1e-6 / log(1-p)) = 20 steps at p = 1/2
        assert all(g <= 1e-6 for g in gaps[20:])
        for a, b in zip(gaps[5:24], gaps[6:25]):
            assert abs(b / a - 0.5) <= 0.05

    def test_initial_state_forgotten_generic_embedding(self):
        """Random embedding: coherences halve the rate, gap < 1e-6 within 40 steps."""
        rng = np.random.default_rng(11)
        cfg = ReservoirConfig(n_qubits=4, gamma=0.5)
        w = init_weights(11, c=1, n_mem=2)
        u = rng.random(45)
        rho_a = ground_state(2)
        rho_b = oracles.random_density(rng, 4)
        gap = None
        for t in range(45):
            x = context_window(u, t, 1)
            rho_a, row_a = step(rho_a, x, w, cfg)
            rho_b, row_b = step(rho_b, x, w, cfg)
            if t >= 40:
                assert np.max(np.abs(row_a - row_b)) <= 1e-6


class TestRunSampled:

    def test_total_variation_against_exact(self):
        """1e6 shots keep every row within TV < 0.01 of the exact backend."""
        w = init_weights(42, c=1, n_mem=2)
        u = np.random.default_rng(5).random(50)
        exact = run_exact(u, w, ReservoirConfig(n_qubits=4, gamma=0.6))
        cfg = ReservoirConfig(n_qubits=4, gamma=0.6, backend="sampled",
                              n_shots=1_000_000)
        sampled = run_sampled(u, w, cfg, np.random.default_rng(123))
        tv = 0.5 * np.abs(sampled - exact).sum(axis=1)
        assert tv.max() < 0.01

    def test_draws_over_exact_rows(self):
        """Row t is a multinomial draw over exact row t, drawn in time order."""
        w = init_weights(4, c=2, n_mem=2)
        u = np.random.default_rng(6).random(25)
        cfg = ReservoirConfig(n_qubits=4, gamma=0.45, c=2, backend="sampled",
                              n_shots=400)
        rng = np.random.default_rng(8)
        expected = np.array([rng.multinomial(400, row / row.sum())
                             for row in run_exact(u, w, cfg)]) / 400
        assert_allclose(run_sampled(u, w, cfg, np.random.default_rng(8)),
                        expected, rtol=0, atol=0)

    def test_deterministic_given_stream(self):
        w = init_weights(1, c=1, n_mem=1)
        cfg = ReservoirConfig(n_qubits=2, gamma=0.5, backend="sampled",
                              n_shots=300)
        u = np.random.default_rng(2).random(20)
        a = run_sampled(u, w, cfg, np.random.default_rng(99))
        b = run_sampled(u, w, cfg, np.random.default_rng(99))
        assert_allclose(a, b, rtol=0, atol=0)

    def test_rows_are_frequencies(self):
        w = init_weights(3, c=1, n_mem=2)
        cfg = ReservoirConfig(n_qubits=4, gamma=0.3, backend="sampled",
                              n_shots=640)
        rows = run_sampled(np.random.default_rng(0).random(15), w, cfg,
                           np.random.default_rng(1))
        assert np.all(rows >= 0)
        assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.abs(np.round(rows * 640) - rows * 640) < 1e-9)


class TestRunTrajectories:

    def test_marginals_match_exact(self):
        """Per-timestep trajectory frequencies approach the exact rows."""
        w = init_weights(42, c=1, n_mem=2)
        u = np.random.default_rng(7).random(20)
        exact = run_exact(u, w, ReservoirConfig(n_qubits=4, gamma=0.55))
        cfg = ReservoirConfig(n_qubits=4, gamma=0.55, backend="trajectory",
                              n_shots=10_000)
        freq = run_trajectories(u, w, cfg, np.random.default_rng(17))
        tv = 0.5 * np.abs(freq - exact).sum(axis=1)
        assert tv.max() < 0.05

    def test_equals_per_shot_collapse_loop(self):
        """The batched kernel reproduces shot-by-shot collapse streams."""
        n_shots, t_len = 12, 6
        w = init_weights(3, c=1, n_mem=2)
        u = np.random.default_rng(4).random(t_len)
        cfg = ReservoirConfig(n_qubits=4, gamma=0.5, backend="trajectory",
                              n_shots=n_shots)
        freq = run_trajectories(u, w, cfg, np.random.default_rng(31))

        unitaries = [embedding_unitary(compute_angles(context_window(u, t, 1), w),
                                       w.w_hidden, 1) for t in range(t_len)]
        counts = np.zeros((t_len, 4))
        for child in np.random.default_rng(31).spawn(n_shots):
            psi = np.zeros(4, dtype=complex)
            psi[0] = 1.0
            for t in range(t_len):
                psi, bits = oracles.trajectory_step_per_shot(
                    unitaries[t] @ psi, 0.5, child)
                counts[t, bits] += 1
        assert_allclose(freq, counts / n_shots, rtol=0, atol=0)

    def test_chunking_does_not_change_results(self, monkeypatch):
        w = init_weights(2, c=1, n_mem=1)
        u = np.random.default_rng(9).random(8)
        cfg = ReservoirConfig(n_qubits=2, gamma=0.7, backend="trajectory",
                              n_shots=50)
        monkeypatch.setattr(reservoir, "CHUNK", 7)
        a = run_trajectories(u, w, cfg, np.random.default_rng(5))
        monkeypatch.setattr(reservoir, "CHUNK", 50)
        b = run_trajectories(u, w, cfg, np.random.default_rng(5))
        assert_allclose(a, b, rtol=0, atol=0)


    def test_per_chunk_arrays_match_one_chunk(self, monkeypatch):
        """Chunks of 16 rows and a last chunk of 2, each with arrays of its
        own size, give the one-chunk result."""
        w = init_weights(4, c=2, n_mem=3)
        u = np.random.default_rng(6).random(12)
        cfg = ReservoirConfig(n_qubits=6, gamma=0.35, c=2, n_repeats=2,
                              backend="trajectory", n_shots=50)
        monkeypatch.setattr(reservoir, "CHUNK", 16)
        a = run_trajectories(u, w, cfg, np.random.default_rng(8))
        monkeypatch.setattr(reservoir, "CHUNK", 4096)
        b = run_trajectories(u, w, cfg, np.random.default_rng(8))
        assert np.array_equal(a, b)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page fault counts are Linux-specific")
    def test_step_loop_does_not_fault_per_step(self):
        """A fresh interpreter's 60-step, 4,000-shot run at 8 qubits takes few
        minor page faults: the workspace is touched once, not every step.
        With fresh arrays every step it took 33,270-33,780; with one
        workspace per chunk, 3,414-3,925."""
        src = os.path.dirname(os.path.dirname(reservoir.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import resource, numpy as np\n"
            "from swapqrn import ReservoirConfig, init_weights, run_trajectories\n"
            "cfg = ReservoirConfig(n_qubits=8, gamma=0.55, backend='trajectory',"
            " n_shots=4000)\n"
            "u = np.random.default_rng(3).random(60)\n"
            "w = init_weights(cfg.seed, cfg.c, cfg.n_mem)\n"
            "rng = np.random.default_rng(cfg.seed)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_trajectories(u, w, cfg, rng)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert int(out.stdout) < 33_270 // 2

class TestFeatureSerialization:

    def test_labels_lexicographic(self):
        assert bitstring_labels(2) == ["00", "01", "10", "11"]
        assert bitstring_labels(1) == ["0", "1"]

    def test_csv_round_trip_bit_exact(self, tmp_path):
        rows = np.random.default_rng(0).random((7, 4))
        path = tmp_path / "features.csv"
        features_to_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "t,00,01,10,11"
        back = features_from_csv(path)
        assert_allclose(back, rows, rtol=0, atol=0)
