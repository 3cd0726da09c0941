"""Single-qubit rotations and the partial-SWAP coupling coefficients.

Qubit ordering is little-endian throughout the package: qubit 0 is the least
significant bit of a basis index.
"""

from __future__ import annotations

import numpy as np


def _check_angle(theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    return theta


def rx(theta: float) -> np.ndarray:
    """Rotation exp(-i theta X / 2)."""
    theta = _check_angle(theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta: float) -> np.ndarray:
    """Rotation exp(-i theta Y / 2)."""
    theta = _check_angle(theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not np.isfinite(gamma) or not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return gamma


def swap_coefficients(gamma: float) -> tuple[complex, complex]:
    """Closed-form pair A = (1 + e^{i pi g})/2, B = (1 - e^{i pi g})/2.

    These are the matrix elements of SWAP^gamma on the one-excitation block;
    equivalently A = e^{i pi g/2} cos(pi g/2) and B = -i e^{i pi g/2} sin(pi g/2).
    """
    gamma = check_gamma(gamma)
    phase = np.exp(1j * np.pi * gamma)
    return 0.5 * (1.0 + phase), 0.5 * (1.0 - phase)


def damping_probability(gamma: float) -> float:
    """p = sin^2(pi gamma / 2), computed as 1 - |A|^2.

    This keeps the population scale 1-p exactly equal to |A|^2, the squared
    magnitude of the coherence factor, so gamma=0.5 gives p=0.5 and gamma=1
    gives p=1 without rounding residue.
    """
    a, _ = swap_coefficients(gamma)
    return 1.0 - (a.real * a.real + a.imag * a.imag)


def partial_swap_unitary(gamma: float) -> np.ndarray:
    """Two-qubit partial SWAP; gamma=1 is the canonical SWAP."""
    a, b = swap_coefficients(gamma)
    return np.array(
        [[1, 0, 0, 0],
         [0, a, b, 0],
         [0, b, a, 0],
         [0, 0, 0, 1]], dtype=complex)


def n_qubits_of(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n

