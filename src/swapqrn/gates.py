"""Partial-SWAP coupling coefficients and shared argument checks.

Qubit ordering is little-endian throughout the package: qubit 0 is the least
significant bit of a basis index.
"""

from __future__ import annotations

import numpy as np


def check_seed(seed):
    """A seed for ``np.random.default_rng``: a non-negative integer."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def check_integer(name, value, error=ValueError):
    """``value``, named ``name`` in the ``error`` raised, must be an integer;
    a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


def check_count(name, value, least=1, error=ValueError):
    """As :func:`check_integer`, and ``value`` must be >= ``least``."""
    check_integer(name, value, error)
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


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

