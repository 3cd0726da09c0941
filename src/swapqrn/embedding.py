"""Input embedding: data-dependent Euler rotations plus a fixed CRZ ring.

One block applies per-qubit rotations rx(Th_j1) ry(Th_j2) rx(Th_j3) (the third
angle acts first) followed by a ring of CRZ entanglers, qubit j controlling
qubit (j+1) mod n_mem with angle w_hidden[j]. The block repeats n_repeats
times with the same angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import check_count, check_seed


@dataclass(frozen=True)
class EmbeddingWeights:
    """Random but fixed embedding parameters, all sampled uniformly from (0, pi]."""
    w_in: np.ndarray      # (c, n_mem, 3) input couplings
    w_bias: np.ndarray    # (n_mem, 3) rotation offsets
    w_hidden: np.ndarray  # (n_mem,) CRZ ring angles
    seed: int

    @property
    def c(self) -> int:
        return self.w_in.shape[0]

    @property
    def n_mem(self) -> int:
        return self.w_in.shape[1]


def init_weights(seed: int, c: int, n_mem: int) -> EmbeddingWeights:
    """Draw weights in a fixed order: w_in (i,j,k), then w_bias, then w_hidden."""
    check_seed(seed)
    check_count("c", c)
    check_count("n_mem", n_mem)
    rng = np.random.default_rng(seed)
    # 1 - v maps [0, 1) draws onto the half-open (0, pi] target range
    w_in = np.pi * (1.0 - rng.random((c, n_mem, 3)))
    w_bias = np.pi * (1.0 - rng.random((n_mem, 3)))
    w_hidden = np.pi * (1.0 - rng.random(n_mem))
    return EmbeddingWeights(w_in=w_in, w_bias=w_bias, w_hidden=w_hidden, seed=seed)


def context_window(u: np.ndarray, t: int, c: int) -> np.ndarray:
    """Most-recent-first window (u_t, u_{t-1}, ..., u_{t-c+1}), zero-padded at the start."""
    u = np.asarray(u, dtype=float)
    if not 0 <= t < len(u):
        raise ValueError(f"time index {t} outside series of length {len(u)}")
    out = np.zeros(c)
    k = min(c, t + 1)
    out[:k] = u[t - k + 1:t + 1][::-1]
    return out


def compute_angles(x: np.ndarray, weights: EmbeddingWeights) -> np.ndarray:
    """Angles Theta[..., j, k] = sum_i x[..., i] w_in[i, j, k] + w_bias[j, k]
    of windows x (..., c), leading axes carried through; x is read as
    float64, and so are the angles, whatever x's dtype."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (weights.c,):
        raise ValueError(f"context shape {x.shape} != (..., {weights.c})")
    return np.einsum("...i,ijk->...jk", x, weights.w_in) + weights.w_bias


def series_angles(u: np.ndarray, weights: EmbeddingWeights) -> np.ndarray:
    """:func:`compute_angles` of the (T, c) matrix of every step's
    ``context_window(u, t, c)``: (T, n_mem, 3) float64 angles, step leading."""
    u = np.asarray(u, dtype=float)
    c = weights.c
    padded = np.concatenate([np.zeros(c - 1), u])
    return compute_angles(padded[np.arange(len(u))[:, None] + (c - 1)
                                 - np.arange(c)], weights)


def ring_edges(n_mem: int) -> list[tuple[int, int]]:
    """CRZ ring (control, target) pairs; none for one qubit, one edge for two."""
    if n_mem == 1:
        return []
    if n_mem == 2:
        return [(0, 1)]
    return [(j, (j + 1) % n_mem) for j in range(n_mem)]


def rotation_stack(theta: np.ndarray) -> np.ndarray:
    """Per-qubit rotations rx(Th_j1) ry(Th_j2) rx(Th_j3) as an (..., n_mem, 2, 2)
    stack; leading axes of ``theta`` (..., n_mem, 3), such as a step axis,
    carry through entry by entry."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError(f"rotation angles must be finite, got {theta}")
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    # gates[..., j, :] holds qubit j's factors rx(Th_j1), ry(Th_j2), rx(Th_j3)
    gates = np.empty(theta.shape + (2, 2), dtype=complex)
    gates[..., 0, 0] = gates[..., 1, 1] = c
    gates[..., 0::2, 0, 1] = gates[..., 0::2, 1, 0] = -1j * s[..., 0::2]
    gates[..., 1, 0, 1] = -s[..., 1]
    gates[..., 1, 1, 0] = s[..., 1]
    return gates[..., 0, :, :] @ gates[..., 1, :, :] @ gates[..., 2, :, :]


def kron_layer(rotations: np.ndarray) -> np.ndarray:
    """Kronecker product, in their dtype, of per-qubit gates (..., n, 2, 2),
    qubit 0 as the least significant bit; leading axes carry through."""
    out = np.ones(rotations.shape[:-3] + (1, 1), dtype=rotations.dtype)
    for q in range(rotations.shape[-3] - 1, -1, -1):
        # out (x) g, each entry the one product out[i, j] * g[k, l]
        g = rotations[..., q, None, :, None, :]
        out = (out[..., :, None, :, None] * g).reshape(
            out.shape[:-2] + (2 * out.shape[-2], 2 * out.shape[-1]))
    return out


def crz_ring_diagonal(w_hidden: np.ndarray) -> np.ndarray:
    # every CRZ is diagonal, so the whole entangling layer is one diagonal
    n_mem = len(w_hidden)
    idx = np.arange(1 << n_mem)
    d = np.ones(1 << n_mem, dtype=complex)
    for j, (ctrl, tgt) in enumerate(ring_edges(n_mem)):
        on = ((idx >> ctrl) & 1).astype(bool)
        sign = np.where((idx >> tgt) & 1, 1.0, -1.0)
        d *= np.where(on, np.exp(0.5j * w_hidden[j] * sign), 1.0)
    return d


def embedding_unitary(theta: np.ndarray, w_hidden: np.ndarray,
                      n_repeats: int) -> np.ndarray:
    """Full-register unitary: the rotation + CRZ ring block to ``n_repeats``."""
    theta = np.asarray(theta, dtype=float)
    w_hidden = np.asarray(w_hidden, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != 3:
        raise ValueError(f"theta must have shape (n_mem, 3), got {theta.shape}")
    if w_hidden.shape != (theta.shape[0],):
        raise ValueError(
            f"w_hidden shape {w_hidden.shape} != ({theta.shape[0]},)")
    check_count("n_repeats", n_repeats)
    return np.linalg.matrix_power(
        crz_ring_diagonal(w_hidden)[:, None] * kron_layer(rotation_stack(theta)),
        n_repeats)
