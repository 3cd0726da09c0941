"""Measure-and-reset readout coupling as a reduced-state Kraus channel.

Coupling each memory qubit to a fresh |0> readout qubit with a partial SWAP,
measuring the readout in Z and discarding it is, on the memory register alone,
a tensor product of single-qubit amplitude-damping channels with
p = sin^2(pi gamma / 2). The joint register is never materialized.

Qubit q maps its row/col-bit blocks to [[r00 + p r11, conj(A) r01],
[A r10, |A|^2 r11]]: the decay branch B|0><1| (|B|^2 = p) adds p r11 into
r00, then S = (x)_q diag(1, A) scales rows and S^+ columns.
:func:`damping_channel` and the exact reservoir kernel both run the transfer
on a framed state, where it is one add per qubit (:func:`damping_transfer`);
the kernel's frame is ``reservoir.damping_frame``.
"""

from __future__ import annotations

import numpy as np

from .embedding import kron_layer
from .gates import check_gamma, damping_probability, n_qubits_of, swap_coefficients

# numpy's ufunc buffer, in entries, for the strided transfer passes: d_lo^2
# at 16 qubits, a multiple of 16.  At numpy's 8192 they ran 2.4x slower.
PASS_BUFFER = 256


def ground_state(n_qubits: int) -> np.ndarray:
    """|0..0><0..0| on n_qubits."""
    rho = np.zeros((1 << n_qubits,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    return rho


def check_square(rho: np.ndarray) -> int:
    """n of a (2**n, 2**n) rho; ``ValueError`` naming any other shape."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"rho has shape {rho.shape}, not (2**n, 2**n)")
    return n_qubits_of(len(rho))


def transfer_views(state: np.ndarray, inner: int = 1) -> list:
    """Per qubit, the (t00, t11) operands of :func:`damping_transfer` on
    ``state``, read as the row and column bit axes of n qubits leading and
    ``inner`` entries trailing: its [..0.., ..0..] and [..1.., ..1..] blocks,
    each as a (hi, lo, hi, lo, inner) view.  A density matrix is the case
    inner=1."""
    n = n_qubits_of(state.size // inner) // 2
    halves = [(1 << (n - 1 - q), 1 << q) for q in range(n)]
    return [(t[:, 0, :, :, 0], t[:, 1, :, :, 1])
            for hi, lo in halves
            for t in [state.reshape(hi, 2, lo, hi, 2, lo, inner)]]


def damping_transfer(views: list) -> None:
    """Add rho~[..1.., ..1..] into rho~[..0.., ..0..] for each qubit, in
    place, through the :func:`transfer_views` of a framed rho~ whose 1-rows
    and 1-columns of each qubit together carry the factor p: there the
    decay branch's r00 += p r11 is one add.  These transfer halves commute
    with every qubit's scaling, so all may run before it."""
    for t00, t11 in views:
        np.add(t00, t11, out=t00)


def damping_channel(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the per-qubit damping channel to every qubit of rho.

    On a copy of rho, which is left untouched, with row i framed by
    p^popcount(i) in the pass that copies it, :func:`damping_transfer` runs
    every qubit's transfer in ascending order; then row i is scaled by
    (A/p)^popcount(i), which takes the frame off, and column j by
    conj(A)^popcount(j).  At p = 0 neither frame nor transfer runs.  The
    frame is one-sided, unlike the kernel's, as rows and columns are scaled
    apart here: its factors stay exact where p and A are (gamma = 1/2).  A
    rho of any shape but (2**n, 2**n) raises ``ValueError``.
    """
    gamma = check_gamma(gamma)
    rho = np.asarray(rho)
    pop = np.bitwise_count(np.arange(1 << check_square(rho)))
    a, _ = swap_coefficients(gamma)
    p = damping_probability(gamma)
    frame = p or 1.0
    out = np.multiply(rho, (frame ** pop)[:, None], dtype=complex)
    with np.errstate():  # restores the caller's buffer size on exit
        np.setbufsize(PASS_BUFFER)
        damping_transfer(transfer_views(out) if p else [])
    out *= ((a / frame) ** pop)[:, None]
    out *= (a ** pop).conj()
    return out


def povm_matrix(gamma: float, n: int) -> np.ndarray:
    """The matrix that maps diag(rho) on n qubits to the outcome distribution.

    Outcome POVM elements are diagonal: E_0 = diag(1, 1-p), E_1 = diag(0, p)
    per qubit, so p(b) needs only diag(rho); w[b_j, m_j] collects the factors.
    """
    p = damping_probability(gamma)
    w = np.array([[1.0, 1.0 - p], [0.0, p]])
    return kron_layer(np.broadcast_to(w, (n, 2, 2)))


def outcome_row(populations: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """``povm`` (a :func:`povm_matrix`) applied to ``populations``, diag(rho)
    in any shape that reads in index order, whose entries below -1e-10 raise
    ``ValueError`` and above it are clipped at 0."""
    d = populations.real
    if d.min() < -1e-10:
        raise ValueError(f"density matrix has negative population {d.min():.3e}")
    return povm @ np.maximum(d, 0.0).reshape(-1)


def outcome_distribution(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Probability of each readout bitstring; readout bit j is index bit j.

    p(b) = Tr[(kron_j K_{b_j}) rho (kron_j K_{b_j})^dagger]; since K^+K is
    diagonal this reduces to a fixed matrix acting on diag(rho).  A rho of
    any shape but (2**n, 2**n) raises ``ValueError``.
    """
    gamma = check_gamma(gamma)
    rho = np.asarray(rho)
    povm = povm_matrix(gamma, check_square(rho))
    return outcome_row(rho.diagonal(), povm)


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2].  A rho of any shape but (2**n, 2**n) raises ``ValueError``."""
    rho = np.asarray(rho)
    check_square(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)


def collapse_workspace(m, n):
    """Arrays :func:`collapse` writes for a batch of m rows of n qubits: the
    ones whose size scales with the batch.  ``"levels"`` holds the two
    half-size buffers that the draw's levels alternate between; ``"scale"``
    is a complex view of ``"sq"`` and ``"index"`` an int64 view of ``"w"``,
    each written only after the draw has spent the buffer under it.
    ``"out"`` may hold the batch's ground states before the first step."""
    dim = 1 << n
    sq, w = np.empty((m, 2 * dim)), np.empty((dim, m))
    return {"sq": sq, "w": w, "levels": np.empty((2, dim // 2, m)),
            "index": w.reshape(m, dim).view(np.int64),
            "kept": np.empty((m, dim), complex),
            "scale": sq.view(complex),
            "out": np.empty((m, dim), complex)}


def collapse_workspace_bytes(m, n):
    """Bytes of ``collapse_workspace(m, n)``, computed without allocating:
    per row and basis index, 16 of sq (and the scale it holds), 8 each of w
    (and the index it holds) and the levels, and 16 each of kept and out."""
    return 64 * m << n


def collapse_tables(gamma, n):
    """(coef, src) of :func:`collapse` on n qubits: outcome c maps amplitude
    src[c, i] = i | c to i with the factor coef[c, i] = B^|c| A^|i|, zero
    where i & c != 0."""
    a, b = swap_coefficients(gamma)
    idx = np.arange(1 << n)
    pop = np.bitwise_count(idx)
    coef = np.where(idx[:, None] & idx == 0, b ** pop[:, None] * a ** pop, 0)
    return coef, idx[:, None] | idx


def collapse(states, uniforms, p, coef, src, ws):
    """One measure-and-reset round on a batch of m pure memory states, in the
    batch-sized arrays of ``ws``, a :func:`collapse_workspace` of exactly m
    rows; ``reservoir.run_trajectories`` runs it once per step.

    ``uniforms`` (m, n) holds each row's [0, 1) draw per qubit.  K0 and K1
    map basis states to basis states, so the outcomes are drawn from the
    weights w = |psi|^2, held transposed as (2**n >> q, m), qubits in
    ascending order: qubit q is taken with probability p w1 / (w0 + w1), w1
    and w0 its bit-1 and bit-0 sums, and is then summed out of w.  Outcome
    c's Kraus string is one gather with the :func:`collapse_tables`,
    (K_c psi)_i = B^|c| A^|i| psi_{i|c} where i & c = 0, else 0.  Rows never
    mix.  Returns the collapsed states, a view into ``ws``, and the int64
    outcomes; ``states``, a C-contiguous complex (m, 2**n) batch, is read
    only.  No complex ``out=`` aliases one of its inputs: numpy's in-place
    complex multiply may round unlike its out-of-place one (a float64 add or
    multiply rounds alike).
    """
    m, n = uniforms.shape
    sq = np.square(states.view(float), out=ws["sq"])  # Re^2, Im^2 interleaved
    w = np.add(sq[:, 0::2].T, sq[:, 1::2].T, out=ws["w"])
    bits = np.zeros(m, np.int64)
    for q in range(n):  # qubit q is the lowest bit left in w
        w0, w1 = w[0::2], w[1::2]
        # ((r0 + r1) + r2) + ..., left to right as the stored trajectory
        # references were summed (add.reduce may pair terms on one row)
        s0, s1 = w0[0].copy(), w1[0].copy()
        for j in range(1, len(w0)):
            s0 += w0[j]
            s1 += w1[j]
        take = uniforms[:, q] * (s0 + s1) < p * s1
        bits |= take << q
        # the next w is where(take, 0, w0) + f w1, f = p where taken, else
        # 1 - p, computed as w0 (1 - take) + f w1: w0 * 0 is +0 (w0 >= 0) and
        # +0 + x is x, so the two agree bit for bit; the spent sq holds f w1
        part = np.multiply(np.where(take, p, 1.0 - p), w1,
                           out=sq.reshape(-1, m)[:len(w1)])
        w = np.multiply(w0, ~take, out=ws["levels"][q % 2, :len(w1)])
        w += part
    # mode="clip" as every index is in range; mode="raise" buffers out=
    index = np.take(src, bits, axis=0, out=ws["index"], mode="clip")
    index += (np.arange(m) << n)[:, None]  # flat offsets of the rows
    kept = np.take(states.reshape(-1), index, out=ws["kept"], mode="clip")
    out = np.take(coef, bits, axis=0, out=ws["out"], mode="clip")
    scale = np.multiply(out, 1.0 / np.sqrt(w.reshape(m, 1)), out=ws["scale"])
    return np.multiply(kept, scale, out=out), bits


def rehermitize(rho: np.ndarray) -> np.ndarray:
    """(rho + rho^+)/2, rescaled to unit trace when it has drifted past 1e-12.

    A rho of any shape but (2**n, 2**n) raises ``ValueError``.  No path of
    the package repairs its state any more (``run_exact`` checks it
    instead); this stays for the traced replay in ``perfbench/child.py``.
    """
    rho = np.asarray(rho, dtype=complex)
    check_square(rho)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-12:
        rho = rho / tr
    return rho
