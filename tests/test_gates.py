import numpy as np
import pytest
from numpy.testing import assert_allclose

from swapqrn.embedding import rotation_stack
from swapqrn.gates import swap_coefficients, partial_swap_unitary

from oracles import crz, is_unitary

GAMMA_GRID = np.round(np.arange(0.05, 1.0001, 0.05), 10)


def rx(theta):
    return rotation_stack(np.array([[theta, 0.0, 0.0]]))[0]


def ry(theta):
    return rotation_stack(np.array([[0.0, theta, 0.0]]))[0]


class TestSingleQubitGates:

    def test_rx_pi_is_minus_i_x(self):
        """rx(pi) = -i X, hand-derived from exp(-i pi X / 2)."""
        expected = np.array([[0, -1j], [-1j, 0]])
        assert_allclose(rx(np.pi), expected, atol=1e-15)

    def test_ry_half_pi(self):
        """ry(pi/2) = (1/sqrt2) [[1, -1], [1, 1]]."""
        expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        assert_allclose(ry(np.pi / 2), expected, atol=1e-15)

    def test_zero_angle_is_identity(self):
        assert_allclose(rx(0.0), np.eye(2), atol=1e-15)
        assert_allclose(ry(0.0), np.eye(2), atol=1e-15)

    def test_unitarity_random_angles(self):
        rng = np.random.default_rng(42)
        for theta in rng.uniform(-10, 10, 200):
            for g in (rx(theta), ry(theta)):
                assert_allclose(g @ g.conj().T, np.eye(2), atol=1e-12)

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(ValueError):
            rx(np.nan)
        with pytest.raises(ValueError):
            ry(np.inf)


class TestCrz:

    def test_crz_two_pi(self):
        """crz(2 pi) = diag(1, 1, -1, -1)."""
        assert_allclose(crz(2 * np.pi), np.diag([1, 1, -1, -1]), atol=1e-15)

    def test_crz_diagonal_phases(self):
        theta = 0.7331
        expected = np.diag([1, 1, np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        assert_allclose(crz(theta), expected, atol=1e-15)

    def test_unitary(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0, 2 * np.pi, 50):
            assert is_unitary(crz(theta))


class TestPartialSwap:

    def test_gamma_one_is_swap(self):
        """gamma=1 reduces to the canonical SWAP within 1e-15 entrywise."""
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                        dtype=complex)
        assert np.max(np.abs(partial_swap_unitary(1.0) - swap)) <= 1e-15

    def test_gamma_half_coefficients(self):
        """A = e^{i pi/4}/sqrt2 = (1+i)/2 and B = -i A at gamma = 0.5."""
        a, b = swap_coefficients(0.5)
        assert_allclose(a, 0.5 + 0.5j, atol=1e-15)
        assert_allclose(b, 0.5 - 0.5j, atol=1e-15)
        u = partial_swap_unitary(0.5)
        expected = np.array(
            [[1, 0, 0, 0], [0, a, b, 0], [0, b, a, 0], [0, 0, 0, 1]])
        assert_allclose(u, expected, atol=1e-15)

    def test_closed_form_matches_trig_form(self):
        """(1 ± e^{i pi g})/2 equals the e^{i pi g/2} cos/sin form on the grid."""
        for g in GAMMA_GRID:
            a, b = swap_coefficients(g)
            half = np.pi * g / 2
            assert_allclose(a, np.exp(1j * half) * np.cos(half), atol=1e-14)
            assert_allclose(b, -1j * np.exp(1j * half) * np.sin(half), atol=1e-14)

    def test_unitary_on_grid(self):
        for g in GAMMA_GRID:
            assert is_unitary(partial_swap_unitary(g), atol=1e-12)

    def test_rejects_out_of_range_gamma(self):
        for g in (0.0, -0.1, 1.0001, np.nan):
            with pytest.raises(ValueError):
                partial_swap_unitary(g)

