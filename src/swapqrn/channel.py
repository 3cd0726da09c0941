"""Measure-and-reset readout coupling as a reduced-state Kraus channel.

Coupling each memory qubit to a fresh |0> readout qubit with a partial SWAP,
measuring the readout in Z and discarding it is, on the memory register alone,
a tensor product of single-qubit amplitude-damping channels with
p = sin^2(pi gamma / 2). The joint register is never materialized.

The channel splits into an in-place transfer (:func:`damping_transfer`) and
the scaling S = (x)_q diag(1, A) on rows and S^+ on columns
(:func:`damping_scale`).  S is a product of one-qubit operators, so the exact
reservoir kernel folds it into the next step's rotation gates and runs only
the transfer on the state it owns; :func:`damping_channel` applies both to a
copy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gates import check_gamma, damping_probability, n_qubits_of, swap_coefficients


def ground_state(n_qubits: int) -> np.ndarray:
    """|0..0><0..0| on n_qubits."""
    dim = 1 << n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def damping_transfer(rho: np.ndarray, p: float) -> None:
    """Add p rho[..1.., ..1..] into rho[..0.., ..0..] for each qubit, in place.

    These are the transfer halves of every qubit's damping; they commute with
    every qubit's scaling, so all of them may run before any scaling.
    """
    n = n_qubits_of(rho.shape[0])
    for q in range(n):
        hi, lo = 1 << (n - 1 - q), 1 << q
        t = rho.reshape(hi, 2, lo, hi, 2, lo)
        t[:, 0, :, :, 0] += p * t[:, 1, :, :, 1]


def damping_scale(rho: np.ndarray, a: complex) -> None:
    """S rho S^+ with S = (x)_q diag(1, A), in place: row i is scaled by
    A^popcount(i) and column j by conj(A)^popcount(j)."""
    scale = a ** np.bitwise_count(np.arange(rho.shape[0]))
    rho *= scale[:, None]
    rho *= scale.conj()


def damping_channel(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the per-qubit damping channel to every qubit of rho.

    Qubit q maps its row/col-bit blocks to [[r00 + p r11, conj(A) r01],
    [A r10, |A|^2 r11]]: the transfer r00 += p r11, then a scaling that
    commutes with every other qubit's transfer.  On a copy of rho, which is
    left untouched, :func:`damping_transfer` runs every qubit's transfer and
    :func:`damping_scale` then applies all the scalings at once.
    """
    gamma = check_gamma(gamma)
    out = np.array(rho, dtype=complex)
    a, _ = swap_coefficients(gamma)
    damping_transfer(out, damping_probability(gamma))
    damping_scale(out, a)
    return out


@lru_cache(maxsize=128)
def _povm_diagonal_matrix(gamma: float, n: int) -> np.ndarray:
    # outcome POVM elements are diagonal: E_0 = diag(1, 1-p), E_1 = diag(0, p)
    # per qubit, so p(b) needs only diag(rho); w[b_j, m_j] collects the factors
    p = damping_probability(gamma)
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
    draw per row and qubit, ``(m, n_mem)``.  Qubits are drawn in ascending
    order from the weights w = |psi|^2 alone, since K0 and K1 map basis
    states to basis states: qubit q is taken with probability
    p w1 / (w0 + w1), its bit-1 and bit-0 sums, then summed out of w.
    Outcome c's Kraus string then acts as one gather,
    (K_c psi)_i = B^|c| A^|i| psi_{i|c} where i & c = 0, else 0.  Rows never
    mix, so a row's result does not depend on the batch it rides in.
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
    w = states.real ** 2 + states.imag ** 2
    bits = np.zeros(m, dtype=np.int64)
    for q in range(n):  # qubit q is the lowest bit left in w
        w0, w1 = w[:, 0::2], w[:, 1::2]
        s1 = np.einsum("ij->i", w1)  # a third of .sum's time on short rows
        take = uniforms[:, q] * (np.einsum("ij->i", w0) + s1) < p * s1
        w = (np.where(take[:, None], 0.0, w0)
             + np.where(take, p, 1.0 - p)[:, None] * w1)
        bits |= take.astype(np.int64) << q
    idx = np.arange(dim)
    pop = np.bitwise_count(idx)
    coef = np.where(idx[:, None] & idx == 0, b ** pop[:, None] * a ** pop, 0)
    src = idx[:, None] | idx
    kept = states.ravel().take(src[bits] + dim * np.arange(m)[:, None])
    scale = coef[bits] * (1.0 / np.sqrt(w))
    # named operands: numpy elides a large temporary into an in-place complex
    # multiply, which rounds differently, so rows would drift by batch size
    return kept * scale, bits


def rehermitize(rho: np.ndarray) -> np.ndarray:
    """(rho + rho^+)/2, rescaled to unit trace when it has drifted past 1e-12.

    No path of the package repairs its state any more (``run_exact`` checks
    it instead); this stays for the traced replay in ``perfbench/child.py``.
    """
    rho = np.asarray(rho, dtype=complex)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-12:
        rho = rho / tr
    return rho
