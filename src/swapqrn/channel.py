"""Measure-and-reset readout coupling as a reduced-state Kraus channel.

Coupling each memory qubit to a fresh |0> readout qubit with a partial SWAP,
measuring the readout in Z and discarding it is, on the memory register alone,
a tensor product of single-qubit amplitude-damping channels with
p = sin^2(pi gamma / 2). The joint register is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import check_gamma, damping_probability, n_qubits_of, swap_coefficients


@dataclass(frozen=True)
class KrausPair:
    """Single-qubit Kraus operators of one coupling round at a given gamma."""
    k0: np.ndarray
    k1: np.ndarray
    gamma: float
    p: float


def kraus_pair(gamma: float) -> KrausPair:
    """K0 = diag(1, A), K1 = B |0><1|, with damping probability p = |B|^2."""
    a, b = swap_coefficients(gamma)
    k0 = np.array([[1.0, 0.0], [0.0, a]], dtype=complex)
    k1 = np.array([[0.0, b], [0.0, 0.0]], dtype=complex)
    return KrausPair(k0=k0, k1=k1, gamma=float(gamma), p=damping_probability(gamma))


def ground_state(n_qubits: int) -> np.ndarray:
    """|0..0><0..0| on n_qubits."""
    dim = 1 << n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def ground_state_vector(n_qubits: int) -> np.ndarray:
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def damping_channel(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the per-qubit damping channel to every qubit of rho."""
    gamma = check_gamma(gamma)
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits_of(rho.shape[0])
    a, _ = swap_coefficients(gamma)
    p = damping_probability(gamma)
    t = rho.reshape((2,) * (2 * n))
    for q in range(n):
        t = _damp_one_qubit(t, n, q, a, p)
    return t.reshape(rho.shape)


def _damp_one_qubit(t: np.ndarray, n: int, q: int, a: complex, p: float) -> np.ndarray:
    # block update in the qubit-q row/col bits:
    # [[r00 + p r11, conj(A) r01], [A r10, (1-p) r11]]
    v = np.moveaxis(t, (n - 1 - q, 2 * n - 1 - q), (0, 1))
    out = np.empty_like(v)
    out[0, 0] = v[0, 0] + p * v[1, 1]
    out[0, 1] = np.conj(a) * v[0, 1]
    out[1, 0] = a * v[1, 0]
    out[1, 1] = (1.0 - p) * v[1, 1]
    return np.moveaxis(out, (0, 1), (n - 1 - q, 2 * n - 1 - q))


@lru_cache(maxsize=128)
def _povm_diagonal_matrix(gamma: float, n: int) -> np.ndarray:
    # outcome POVM elements are diagonal: E_0 = diag(1, 1-p), E_1 = diag(0, p)
    # per qubit, so p(b) needs only diag(rho); w[b_j, m_j] collects the factors
    p = kraus_pair(gamma).p
    w = np.array([[1.0, 1.0 - p], [0.0, p]])
    m = w
    for _ in range(n - 1):
        m = np.kron(m, w)
    return m


def outcome_distribution(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Probability of each readout bitstring; readout bit j is index bit j.

    p(b) = Tr[(kron_j K_{b_j}) rho (kron_j K_{b_j})^dagger]; since K^+K is
    diagonal this reduces to a fixed matrix acting on diag(rho).
    """
    gamma = check_gamma(gamma)
    rho = np.asarray(rho)
    n = n_qubits_of(rho.shape[0])
    d = np.diagonal(rho).real
    if d.min() < -1e-10:
        raise ValueError(f"density matrix has negative population {d.min():.3e}")
    dist = _povm_diagonal_matrix(float(gamma), n) @ np.clip(d, 0.0, None)
    return dist


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2]."""
    rho = np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)


def trajectory_step(states: np.ndarray, gamma: float, uniforms: np.ndarray):
    """Sample one measure-and-reset round on a batch of pure memory states.

    ``states`` is ``(m, 2**n_mem)`` and ``uniforms`` holds one ``[0, 1)``
    draw per row and qubit, ``(m, n_mem)``.  Each row collapses qubit by
    qubit in ascending order, which samples the joint outcome with
    probability ||kron_j K_{b_j} psi||^2.  Rows never mix, so a row's result
    does not depend on the batch it rides in.
    Returns (collapsed states, outcome bitstrings as int64).
    """
    gamma = check_gamma(gamma)
    states = np.asarray(states, dtype=complex)
    m, dim = states.shape
    n = n_qubits_of(dim)
    if np.shape(uniforms) != (m, n):
        raise ValueError(f"uniforms shape {np.shape(uniforms)} != {(m, n)}")
    a, b = swap_coefficients(gamma)
    p = damping_probability(gamma)
    idx = np.arange(dim)
    bits = np.zeros(m, dtype=np.int64)
    for q in range(n):
        mask1 = ((idx >> q) & 1).astype(bool)
        excited = states[:, mask1]
        take = uniforms[:, q] < p * np.sum(np.abs(excited) ** 2, axis=1)
        collapsed = np.zeros_like(states)
        collapsed[:, ~mask1] = b * excited
        kept = states.copy()
        kept[:, mask1] = a * excited
        states = np.where(take[:, None], collapsed, kept)
        states /= np.sqrt(np.sum(np.abs(states) ** 2, axis=1))[:, None]
        bits |= take.astype(np.int64) << q
    return states, bits


def rehermitize(rho: np.ndarray, trace_tol: float = 1e-12) -> np.ndarray:
    """(rho + rho^+)/2, rescaled to unit trace when it has drifted."""
    rho = np.asarray(rho, dtype=complex)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_tol:
        rho = rho / tr
    return rho
