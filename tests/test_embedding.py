import numpy as np
import pytest
from numpy.testing import assert_allclose

from swapqrn.embedding import (
    EmbeddingWeights, init_weights, context_window, compute_angles,
    ring_edges, embedding_unitary, rotation_stack, kron_layer,
    crz_ring_diagonal, series_angles,
)

import oracles
from oracles import rx, ry


class TestInitWeights:

    def test_shapes_and_range(self):
        w = init_weights(42, c=5, n_mem=6)
        assert w.w_in.shape == (5, 6, 3)
        assert w.w_bias.shape == (6, 3)
        assert w.w_hidden.shape == (6,)
        for arr in (w.w_in, w.w_bias, w.w_hidden):
            assert np.all(arr > 0.0) and np.all(arr <= np.pi)

    def test_sampling_order_pinned(self):
        """w_in fills (i, j, k) first, then w_bias, then w_hidden, as pi*(1-v)."""
        rng = np.random.default_rng(7)
        expected_in = np.pi * (1.0 - rng.random((2, 3, 3)))
        expected_bias = np.pi * (1.0 - rng.random((3, 3)))
        expected_hidden = np.pi * (1.0 - rng.random(3))
        w = init_weights(7, c=2, n_mem=3)
        assert_allclose(w.w_in, expected_in, rtol=0, atol=0)
        assert_allclose(w.w_bias, expected_bias, rtol=0, atol=0)
        assert_allclose(w.w_hidden, expected_hidden, rtol=0, atol=0)

    def test_deterministic_and_seed_sensitive(self):
        a = init_weights(42, 1, 4)
        b = init_weights(42, 1, 4)
        c = init_weights(43, 1, 4)
        assert_allclose(a.w_in, b.w_in, rtol=0, atol=0)
        assert_allclose(a.w_hidden, b.w_hidden, rtol=0, atol=0)
        assert np.any(a.w_in != c.w_in)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            init_weights(1, 0, 3)
        with pytest.raises(ValueError):
            init_weights(1, 1, 0)


class TestContextWindow:

    def test_start_of_series_zero_padded(self):
        """First sample with c=3 sees (u_0, 0, 0), most recent first."""
        u = np.array([0.5, 0.7, 0.9])
        assert_allclose(context_window(u, 0, 3), [0.5, 0.0, 0.0])

    def test_interior(self):
        u = np.array([0.1, 0.2, 0.3, 0.4])
        assert_allclose(context_window(u, 3, 3), [0.4, 0.3, 0.2])

    def test_single_sample_context(self):
        u = np.array([0.1, 0.2])
        assert_allclose(context_window(u, 1, 1), [0.2])

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            context_window(np.array([1.0]), 1, 1)
        with pytest.raises(ValueError):
            context_window(np.array([1.0]), -1, 1)


class TestComputeAngles:

    def test_zero_context_gives_bias(self):
        w = init_weights(3, c=4, n_mem=2)
        assert_allclose(compute_angles(np.zeros(4), w), w.w_bias, atol=0)

    def test_linear_in_context(self):
        rng = np.random.default_rng(5)
        w = init_weights(11, c=3, n_mem=4)
        x1, x2 = rng.random(3), rng.random(3)
        base = compute_angles(np.zeros(3), w)
        joint = compute_angles(x1 + x2, w)
        parts = (compute_angles(x1, w) - base) + (compute_angles(x2, w) - base)
        assert_allclose(joint - base, parts, atol=1e-12)

    def test_matches_explicit_sum(self):
        w = init_weights(2, c=2, n_mem=3)
        x = np.array([0.25, 0.5])
        expected = x[0] * w.w_in[0] + x[1] * w.w_in[1] + w.w_bias
        assert_allclose(compute_angles(x, w), expected, atol=1e-15)

    def test_rejects_length_mismatch(self):
        w = init_weights(2, c=2, n_mem=3)
        with pytest.raises(ValueError):
            compute_angles(np.zeros(3), w)


class TestRingEdges:

    def test_small_rings(self):
        assert ring_edges(1) == []
        assert ring_edges(2) == [(0, 1)]
        assert ring_edges(3) == [(0, 1), (1, 2), (2, 0)]
        assert ring_edges(5) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


class TestEmbeddingUnitary:

    def test_single_qubit_euler_product(self):
        """n_mem=1: exactly rx(t1) @ ry(t2) @ rx(t3), the last angle acting first."""
        theta = np.array([[0.3, 1.1, 2.2]])
        u = embedding_unitary(theta, np.array([0.4]), n_repeats=1)
        expected = rx(0.3) @ ry(1.1) @ rx(2.2)
        assert_allclose(u, expected, atol=1e-14)

    def test_zero_angles_identity(self):
        u = embedding_unitary(np.zeros((3, 3)), np.zeros(3), n_repeats=2)
        assert_allclose(u, np.eye(8), atol=1e-14)

    def test_unitary_random_configs(self):
        rng = np.random.default_rng(19)
        for n_mem in (1, 2, 3, 4):
            for reps in (1, 2, 3):
                theta = rng.uniform(0, np.pi, (n_mem, 3))
                wh = rng.uniform(0, np.pi, n_mem)
                assert oracles.is_unitary(embedding_unitary(theta, wh, reps), atol=1e-12)

    def test_repeats_are_matrix_powers(self):
        rng = np.random.default_rng(23)
        theta = rng.uniform(0, np.pi, (3, 3))
        wh = rng.uniform(0, np.pi, 3)
        u1 = embedding_unitary(theta, wh, 1)
        u3 = embedding_unitary(theta, wh, 3)
        assert_allclose(u3, u1 @ u1 @ u1, atol=1e-12)

    def test_two_qubit_block_against_dense_oracle(self):
        """n_mem=2 keeps a single CRZ with control qubit 0, target qubit 1."""
        rng = np.random.default_rng(29)
        theta = rng.uniform(0, np.pi, (2, 3))
        wh = rng.uniform(0, np.pi, 2)
        rots = [rx(t[0]) @ ry(t[1]) @ rx(t[2]) for t in theta]
        dense_rot = np.kron(rots[1], rots[0])
        dense_crz = oracles.embed_pair(oracles.crz(wh[0]), 2, 0, 1)
        assert_allclose(embedding_unitary(theta, wh, 1),
                        dense_crz @ dense_rot, atol=1e-13)

    def test_ring_block_against_dense_oracle(self):
        """n_mem=3 and 4: full ring of CRZs after the rotation layer."""
        rng = np.random.default_rng(31)
        for n_mem in (3, 4):
            theta = rng.uniform(0, np.pi, (n_mem, 3))
            wh = rng.uniform(0, np.pi, n_mem)
            rots = [rx(t[0]) @ ry(t[1]) @ rx(t[2]) for t in theta]
            dense_rot = np.eye(1, dtype=complex)
            for r in reversed(rots):
                dense_rot = np.kron(dense_rot, r)
            dense = dense_rot
            for j, (ctrl, tgt) in enumerate(ring_edges(n_mem)):
                dense = oracles.embed_pair(oracles.crz(wh[j]), n_mem, ctrl, tgt) @ dense
            assert_allclose(embedding_unitary(theta, wh, 1), dense, atol=1e-13)

    def test_rotation_stack_bit_identical_to_gate_products(self):
        """The vectorised stack and the dense unitary built from it repeat
        the per-gate products rx @ ry @ rx and their kron chain bit for bit."""
        rng = np.random.default_rng(37)
        for _ in range(200):
            n_mem = int(rng.integers(1, 7))
            theta = rng.uniform(-4 * np.pi, 4 * np.pi, (n_mem, 3))
            wh = rng.uniform(0, np.pi, n_mem)
            rots = [rx(t[0]) @ ry(t[1]) @ rx(t[2]) for t in theta]
            stack = rotation_stack(theta)
            assert stack.tobytes() == np.array(rots).tobytes()
            dense = rots[-1]
            for r in reversed(rots[:-1]):
                dense = np.kron(dense, r)
            assert np.array_equal(kron_layer(stack), dense)
            assert np.array_equal(embedding_unitary(theta, wh, 1),
                                  crz_ring_diagonal(wh)[:, None] * dense)

    @pytest.mark.parametrize("n_steps", [1, 7])
    @pytest.mark.parametrize("n_mem", range(1, 9))
    def test_step_axis_bit_identical_to_per_step_calls(self, n_mem, n_steps):
        """A leading step axis repeats each step's own products."""
        theta = np.random.default_rng(n_mem).uniform(
            -4 * np.pi, 4 * np.pi, (n_steps, n_mem, 3))
        stack = rotation_stack(theta)
        layers = kron_layer(stack)
        assert stack.shape == (n_steps, n_mem, 2, 2)
        assert layers.shape == (n_steps, 2 ** n_mem, 2 ** n_mem)
        for t in range(n_steps):
            assert np.array_equal(stack[t], rotation_stack(theta[t]))
            assert np.array_equal(layers[t], kron_layer(rotation_stack(theta[t])))

    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_series_angles_bit_identical_to_per_step(self, c):
        w = init_weights(11, c=c, n_mem=6)
        u = np.random.default_rng(c).uniform(0, 1, 40)
        angles = series_angles(u, w)
        assert angles.shape == (40, 6, 3)
        for t in range(len(u)):
            assert np.array_equal(angles[t],
                                  compute_angles(context_window(u, t, c), w))
        assert series_angles(u[:0], w).shape == (0, 6, 3)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            embedding_unitary(np.zeros((2, 3)), np.zeros(3), 1)
        with pytest.raises(ValueError):
            embedding_unitary(np.zeros((2, 2)), np.zeros(2), 1)
        with pytest.raises(ValueError):
            embedding_unitary(np.zeros((2, 3)), np.zeros(2), 0)
