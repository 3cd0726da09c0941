import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from swapqrn.channel import (
    kraus_pair, damping_channel, outcome_distribution, purity,
    trajectory_step, ground_state, ground_state_vector, rehermitize,
)

import oracles
from oracles import check_density_matrix

GAMMA_GRID = np.round(np.arange(0.05, 1.0001, 0.05), 10)


def analytic_single_qubit(rho, gamma):
    """Damping map written directly from p = sin^2(pi g/2), phi = pi g/2."""
    p = np.sin(np.pi * gamma / 2) ** 2
    phi = np.pi * gamma / 2
    damp = np.exp(-1j * phi) * np.sqrt(1 - p)
    return np.array(
        [[rho[0, 0] + p * rho[1, 1], damp * rho[0, 1]],
         [np.conj(damp) * rho[1, 0], (1 - p) * rho[1, 1]]])


class TestKrausPair:

    def test_full_swap_limit(self):
        """gamma=1: K0 = diag(1, 0), K1 = |0><1|, p = 1."""
        kp = kraus_pair(1.0)
        assert np.max(np.abs(kp.k0 - np.diag([1, 0]))) <= 1e-15
        assert np.max(np.abs(kp.k1 - np.array([[0, 1], [0, 0]]))) <= 1e-15
        assert kp.p == 1.0

    def test_gamma_half_p_exact(self):
        assert kraus_pair(0.5).p == 0.5

    def test_p_is_sin_squared(self):
        for g in GAMMA_GRID:
            assert abs(kraus_pair(g).p - np.sin(np.pi * g / 2) ** 2) <= 1e-15

    def test_completeness(self):
        """K0+K0 + K1+K1 = I on the whole gamma grid."""
        for g in GAMMA_GRID:
            kp = kraus_pair(g)
            s = kp.k0.conj().T @ kp.k0 + kp.k1.conj().T @ kp.k1
            assert np.max(np.abs(s - np.eye(2))) <= 1e-12

    def test_rejects_gamma_zero(self):
        with pytest.raises(ValueError):
            kraus_pair(0.0)


class TestDampingChannel:

    def test_matches_explicit_kraus_sum_single_qubit(self):
        """Channel equals K0 rho K0+ + K1 rho K1+ assembled by hand."""
        rng = np.random.default_rng(42)
        for g in GAMMA_GRID:
            kp = kraus_pair(g)
            for _ in range(5):
                rho = oracles.random_density(rng, 2)
                explicit = kp.k0 @ rho @ kp.k0.conj().T + kp.k1 @ rho @ kp.k1.conj().T
                assert_allclose(damping_channel(rho, g), explicit, atol=1e-14)

    def test_matches_analytic_form(self):
        rng = np.random.default_rng(1)
        for g in GAMMA_GRID:
            rho = oracles.random_density(rng, 2)
            assert_allclose(damping_channel(rho, g),
                            analytic_single_qubit(rho, g), atol=1e-13)

    def test_plus_state_coherence(self):
        """|+><+| at gamma=0.5: off-diagonal becomes (1-i)/4."""
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = damping_channel(plus, 0.5)
        assert_allclose(out[0, 0], 0.75, atol=1e-15)
        assert_allclose(out[0, 1], 0.25 - 0.25j, atol=1e-15)
        assert_allclose(out[1, 0], 0.25 + 0.25j, atol=1e-15)
        assert_allclose(out[1, 1], 0.25, atol=1e-15)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            for g in (0.05, 0.4, 1.0):
                rho = oracles.random_density(rng, 2 ** n)
                out = damping_channel(rho, g)
                assert abs(np.trace(out).real - 1.0) <= 1e-12
                check_density_matrix(out)

    def test_multiqubit_matches_joint_register(self):
        """Reduced Kraus channel = couple, measure, trace (n_mem <= 3, full grid)."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for g in GAMMA_GRID:
                rho = oracles.random_density(rng, 2 ** n)
                _, mem_oracle = oracles.joint_measure_and_reset(rho, g)
                assert_allclose(damping_channel(rho, g), mem_oracle, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), gamma=st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_explicit_kraus_sum(self, n, gamma, seed):
        """The transfer-then-scale form equals the sum over all Kraus strings."""
        rho = oracles.random_density(np.random.default_rng(seed), 2 ** n)
        assert_allclose(damping_channel(rho, gamma),
                        oracles.damping_kraus_sum(rho, gamma), rtol=0, atol=1e-14)

    def test_input_left_unchanged(self):
        rho = oracles.random_density(np.random.default_rng(4), 8)
        before = rho.copy()
        damping_channel(rho, 0.6)
        assert np.array_equal(rho, before)

    def test_fixed_point_is_ground_state(self):
        rho = oracles.random_density(np.random.default_rng(3), 4)
        for _ in range(200):
            rho = damping_channel(rho, 0.3)
        assert_allclose(rho, ground_state(2), atol=1e-9)


class TestOutcomeDistribution:

    def test_excited_qubit(self):
        """rho = |1><1| gives p(1) = p for every gamma on the grid."""
        rho = np.diag([0.0, 1.0]).astype(complex)
        for g in GAMMA_GRID:
            dist = outcome_distribution(rho, g)
            p = kraus_pair(g).p
            assert_allclose(dist, [1 - p, p], atol=1e-14)

    def test_matches_joint_register(self):
        """Distribution equals Born probabilities of the coupled readout register."""
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for g in GAMMA_GRID:
                rho = oracles.random_density(rng, 2 ** n)
                probs_oracle, _ = oracles.joint_measure_and_reset(rho, g)
                assert_allclose(outcome_distribution(rho, g), probs_oracle,
                                atol=1e-10)

    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            rho = oracles.random_density(rng, 2 ** n)
            dist = outcome_distribution(rho, 0.35)
            assert dist.min() >= 0.0
            assert abs(dist.sum() - 1.0) <= 1e-10

    def test_bit_order_convention(self):
        """Readout qubit 0 is the low bit of the outcome index."""
        # memory qubit 0 excited, qubit 1 ground, gamma=1: outcome 01 certain
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        assert_allclose(outcome_distribution(rho, 1.0), [0, 1, 0, 0], atol=1e-12)


class TestPurityAndDecay:

    def test_rho11_decays_exactly(self):
        """Population decays as (1-p)^n; exact powers of two at gamma=0.5."""
        rho = np.diag([0.0, 1.0]).astype(complex)
        for n in range(1, 41):
            rho = damping_channel(rho, 0.5)
            assert rho[1, 1].real == 0.5 ** n

    def test_offdiagonal_decays_as_sqrt(self):
        """|rho01| picks up sqrt(1-p) per application."""
        rho = np.full((2, 2), 0.5, dtype=complex)
        g = 0.3
        p = kraus_pair(g).p
        for n in range(1, 30):
            rho = damping_channel(rho, g)
            assert abs(abs(rho[0, 1]) - 0.5 * (1 - p) ** (n / 2)) <= 1e-13

    def test_purity_converges_to_one(self):
        rng = np.random.default_rng(17)
        for g in (0.2, 0.5, 0.9):
            rho = oracles.random_density(rng, 2)
            vals = []
            for _ in range(400):
                rho = damping_channel(rho, g)
                vals.append(purity(rho))
            assert vals[-1] >= 1 - 1e-9
            # convergence is monotone once the state is nearly diagonal
            tail = vals[20:]
            assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))

    def test_purity_values(self):
        assert abs(purity(ground_state(3)) - 1.0) <= 1e-14
        assert abs(purity(np.eye(4, dtype=complex) / 4) - 0.25) <= 1e-14


class TestTrajectoryStep:

    def test_full_swap_collapses_to_ground(self):
        """gamma=1 on |1>: outcome bit 1, state collapses to |0>."""
        psi = np.array([[0.0, 1.0]], dtype=complex)
        out, bits = trajectory_step(psi, 1.0, np.random.default_rng(0).random((1, 1)))
        assert bits.tolist() == [1]
        assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_frequencies_match_distribution(self):
        """1e5 collapse samples agree with outcome_distribution to 3 sigma."""
        rng = np.random.default_rng(23)
        n, g, shots = 2, 0.6, 100_000
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
        expected = outcome_distribution(np.outer(psi, psi.conj()), g)
        _, bits = trajectory_step(np.tile(psi, (shots, 1)), g, rng.random((shots, n)))
        freq = np.bincount(bits, minlength=4) / shots
        sigma = np.sqrt(expected * (1 - expected) / shots)
        assert np.all(np.abs(freq - expected) <= 3 * sigma + 1e-12)

    def test_state_stays_normalized(self):
        rng = np.random.default_rng(29)
        states = np.tile(ground_state_vector(3), (16, 1))
        for _ in range(50):
            u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            q, _ = np.linalg.qr(u)
            states, _ = trajectory_step(states @ q.T, 0.4, rng.random((16, 3)))
            norms = np.sum(np.abs(states) ** 2, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_rejects_mismatched_uniforms(self):
        with pytest.raises(ValueError):
            trajectory_step(np.eye(4, dtype=complex), 0.5, np.zeros((4, 3)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 9),
           gamma=st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_rows_equal_single_row_calls(self, n, m, gamma, seed):
        """A batch of m states collapses exactly as m batches of one."""
        rng = np.random.default_rng(seed)
        states = (rng.standard_normal((m, 2 ** n))
                  + 1j * rng.standard_normal((m, 2 ** n)))
        states /= np.sqrt(np.sum(np.abs(states) ** 2, axis=1))[:, None]
        uniforms = rng.random((m, n))
        out, bits = trajectory_step(states, gamma, uniforms)
        for i in range(m):
            row, bit = trajectory_step(states[i:i + 1], gamma, uniforms[i:i + 1])
            assert np.array_equal(row[0], out[i])
            assert bit[0] == bits[i]
        norms = np.sum(np.abs(out) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


class TestValidation:

    def test_accepts_valid_density(self):
        check_density_matrix(oracles.random_density(np.random.default_rng(0), 8))

    def test_rejects_nonhermitian(self):
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            check_density_matrix(bad)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            check_density_matrix(bad)

    def test_rehermitize(self):
        rho = oracles.random_density(np.random.default_rng(2), 4)
        skew = rho + 1e-13 * (np.triu(np.ones((4, 4))) * 1j)
        fixed = rehermitize(skew)
        assert np.max(np.abs(fixed - fixed.conj().T)) == 0.0
        assert abs(np.trace(fixed).real - 1.0) <= 1e-12
