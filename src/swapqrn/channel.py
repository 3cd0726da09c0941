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

import numpy as np

from .gates import check_gamma, damping_probability, n_qubits_of, swap_coefficients


def ground_state(n_qubits: int) -> np.ndarray:
    """|0..0><0..0| on n_qubits."""
    dim = 1 << n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def transfer_views(rho: np.ndarray, buf: np.ndarray) -> list:
    """Per qubit, the (t00, t11, scratch) operands of :func:`damping_transfer`
    on rho: its rho[..0.., ..0..] and rho[..1.., ..1..] blocks and ``buf``,
    a complex buffer of a quarter of rho's entries, each as a
    (hi, lo, hi, lo) view."""
    n = n_qubits_of(rho.shape[0])
    halves = [(1 << (n - 1 - q), 1 << q) for q in range(n)]
    return [(t[:, 0, :, :, 0], t[:, 1, :, :, 1], buf.reshape(hi, lo, hi, lo))
            for hi, lo in halves for t in [rho.reshape(hi, 2, lo, hi, 2, lo)]]


def damping_transfer(views: list, p: float) -> None:
    """Add p rho[..1.., ..1..] into rho[..0.., ..0..] for each qubit, in place,
    through the :func:`transfer_views` of rho.  These transfer halves of the
    damping commute with every qubit's scaling, so all may run before it."""
    for t00, t11, scratch in views:
        np.add(t00, np.multiply(p, t11, out=scratch), out=t00)


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
    damping_transfer(transfer_views(out, np.empty(out.size // 4, complex)),
                     damping_probability(gamma))
    damping_scale(out, a)
    return out


def povm_matrix(gamma: float, n: int) -> np.ndarray:
    """The matrix that maps diag(rho) on n qubits to the outcome distribution.

    Outcome POVM elements are diagonal: E_0 = diag(1, 1-p), E_1 = diag(0, p)
    per qubit, so p(b) needs only diag(rho); w[b_j, m_j] collects the factors.
    """
    p = damping_probability(gamma)
    w = np.array([[1.0, 1.0 - p], [0.0, p]])
    m = w
    for _ in range(n - 1):
        m = np.kron(m, w)
    return m


def outcome_row(rho: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """``povm`` (a :func:`povm_matrix`) applied to diag(rho), whose entries
    below -1e-10 raise ``ValueError`` and above it are clipped at 0."""
    d = rho.diagonal().real
    if d.min() < -1e-10:
        raise ValueError(f"density matrix has negative population {d.min():.3e}")
    return povm @ np.maximum(d, 0.0)


def outcome_distribution(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Probability of each readout bitstring; readout bit j is index bit j.

    p(b) = Tr[(kron_j K_{b_j}) rho (kron_j K_{b_j})^dagger]; since K^+K is
    diagonal this reduces to a fixed matrix acting on diag(rho).
    """
    gamma = check_gamma(gamma)
    rho = np.asarray(rho)
    return outcome_row(rho, povm_matrix(gamma, n_qubits_of(rho.shape[0])))


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2]."""
    rho = np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)


def collapse_workspace(m, n):
    """Arrays :func:`collapse` writes for a batch of m rows of n qubits: the
    ones whose size scales with the batch.  ``"levels"`` holds the two
    half-size buffers that the draw's levels alternate between."""
    dim = 1 << n
    return {"sq": np.empty((m, 2 * dim)), "w": np.empty((dim, m)),
            "levels": np.empty((2, dim // 2, m)),
            "index": np.empty((m, dim), np.int64),
            "kept": np.empty((m, dim), complex),
            "scale": np.empty((m, dim), complex),
            "out": np.empty((m, dim), complex)}


def collapse_workspace_bytes(m, n):
    """Bytes of ``collapse_workspace(m, n)``, computed without allocating:
    per row and basis index, 16 of sq, 8 each of w, the levels and the
    index, and 16 each of kept, scale and out."""
    return 88 * m << n


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
    """The collapse of :func:`trajectory_step` on the batch-sized arrays of
    ``ws``, a :func:`collapse_workspace` of exactly m rows.

    Draws with ``uniforms`` (m, n) and damping probability ``p``, gathers
    with the tables of :func:`collapse_tables`, and returns the collapsed
    states, a view into ``ws``, and the outcomes; ``states``, a C-contiguous
    complex (m, 2**n) batch, is read only.
    The weights are held transposed, (2**n >> q, m), so every operation of
    the draw loop runs along the m rows.  No complex ``out=`` aliases one of
    its own inputs: numpy's in-place complex multiply rounds differently
    from its out-of-place one, so an aliased step would not reproduce a
    fresh-array step bit for bit.  A float64 add or multiply in place rounds
    as it does out of place.
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
    Returns (collapsed states, outcome bitstrings as int64), both new arrays:
    this allocates the tables and a workspace and runs :func:`collapse`.
    """
    gamma = check_gamma(gamma)
    states = np.ascontiguousarray(states, dtype=complex)
    m, dim = states.shape
    n = n_qubits_of(dim)
    if np.shape(uniforms) != (m, n):
        raise ValueError(f"uniforms shape {np.shape(uniforms)} != {(m, n)}")
    return collapse(states, np.asarray(uniforms, dtype=float),
                    damping_probability(gamma), *collapse_tables(gamma, n),
                    collapse_workspace(m, n))


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
