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

import math
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


def _collapse_layout(n):
    # entries per row and dtype of every buffer collapse() writes
    dim = 1 << n
    layout = {"sq": (2 * dim, float), "a0": (1, float), "b0": (1, float),
              "a1": (1, float), "b1": (1, float), "s": (1, float),
              "lhs": (1, float), "rhs": (1, float), "f": (1, float),
              "keep": (1, float), "take": (n, bool), "shifted": (n, np.int64),
              "bits": (1, np.int64), "norm": (1, float), "inv": (1, float),
              "offsets": (1, np.int64), "kept": (dim, complex),
              "scale": (dim, complex), "out": (dim, complex)}
    layout.update({f"w{q}": (dim >> q, float) for q in range(n + 1)})
    return layout


def collapse_workspace(m, n):
    """Buffers :func:`collapse` writes for up to m rows of n qubits, as a
    dict of flat arrays; a batch of j <= m rows uses the first j/m of each.
    ``"offsets"`` holds the flat row offsets r * 2**n, the only entry that
    is not scratch."""
    ws = {name: np.empty(m * size, dtype)
          for name, (size, dtype) in _collapse_layout(n).items()}
    ws["offsets"][:] = np.arange(m) << n
    return ws


def collapse_workspace_bytes(m, n):
    """Bytes of ``collapse_workspace(m, n)``, computed without allocating."""
    return m * sum(size * np.dtype(dtype).itemsize
                   for size, dtype in _collapse_layout(n).values())


def collapse_tables(gamma, n):
    """(coef, src) of :func:`collapse` on n qubits: outcome c maps amplitude
    src[c, i] = i | c to i with the factor coef[c, i] = B^|c| A^|i|, zero
    where i & c != 0."""
    a, b = swap_coefficients(gamma)
    idx = np.arange(1 << n)
    pop = np.bitwise_count(idx)
    coef = np.where(idx[:, None] & idx == 0, b ** pop[:, None] * a ** pop, 0)
    return coef, idx[:, None] | idx


def _ordered_sum(rows, a, b):
    # ((r0 + r1) + r2) + ..., left to right as the stored trajectory
    # references were summed (add.reduce may pair terms on one row), between
    # a and b so that no out= is also an input
    if len(rows) == 1:
        return rows[0]
    total = np.add(rows[0], rows[1], out=a)
    for j in range(2, len(rows)):
        total = np.add(total, rows[j], out=(a, b)[(j - 1) % 2])
    return total


def collapse(states, uniforms, p, coef, src, ws):
    """The collapse of :func:`trajectory_step`, allocating nothing.

    Draws with ``uniforms`` (m, n) and damping probability ``p``, gathers
    with the tables of :func:`collapse_tables`, and returns the collapsed
    states and the outcomes as views into ``ws``, a
    :func:`collapse_workspace` of at least m rows; ``states``, a C-contiguous
    complex (m, 2**n) batch, is read only.
    The weights are held transposed, (2**n >> q, m), so every operation of
    the draw loop runs along the m rows.  No ``out=`` aliases one of its own
    inputs: numpy's in-place complex multiply rounds differently from its
    out-of-place one, so an aliased step would not reproduce a fresh-array
    step bit for bit.
    """
    m, dim = states.shape
    n = uniforms.shape[1]

    def view(name, *shape, start=0):  # a shape-sized run of a flat buffer
        return ws[name][start:start + math.prod(shape)].reshape(shape)

    # sq holds Re^2 and Im^2, interleaved as in states; then each level's two
    # products; then, as int64, the gather's sources and flat index
    sq = np.square(states.view(float), out=view("sq", m, 2 * dim))
    w = np.add(sq[:, 0::2].T, sq[:, 1::2].T, out=view("w0", dim, m))
    s, lhs, rhs, f, keep = (view(name, m)
                            for name in ("s", "lhs", "rhs", "f", "keep"))
    take = view("take", n, m)
    for q in range(n):  # qubit q is the lowest bit left in w
        w0, w1 = w[0::2], w[1::2]
        k = len(w1)
        s0 = _ordered_sum(w0, view("a0", m), view("b0", m))
        s1 = _ordered_sum(w1, view("a1", m), view("b1", m))
        np.add(s0, s1, out=s)
        np.multiply(uniforms[:, q], s, out=lhs)
        np.multiply(p, s1, out=rhs)
        np.less(lhs, rhs, out=take[q])
        # the next w is where(take, 0, w0) + f w1, f = p where taken, else
        # 1 - p, computed as w0 keep + f w1: w0 * 0 is +0 (w0 >= 0) and
        # +0 + x is x, so the two agree bit for bit
        f.fill(1.0 - p)
        np.copyto(f, p, where=take[q])
        np.subtract(1.0, take[q], out=keep)
        part = np.multiply(f, w1, out=view("sq", k, m))
        held = np.multiply(w0, keep, out=view("sq", k, m, start=k * m))
        w = np.add(held, part, out=view(f"w{q + 1}", k, m))
    shifted = np.left_shift(take, np.arange(n)[:, None],
                            out=view("shifted", n, m))
    bits = np.sum(shifted, axis=0, out=view("bits", m))
    sources = view("sq", m, dim).view(np.int64)
    index = view("sq", m, dim, start=m * dim).view(np.int64)
    # mode="clip" as every index is in range; mode="raise" buffers out=
    np.take(src, bits, axis=0, out=sources, mode="clip")
    np.add(sources, view("offsets", m, 1), out=index)
    kept = np.take(states.reshape(-1), index, out=view("kept", m, dim),
                   mode="clip")
    out = np.take(coef, bits, axis=0, out=view("out", m, dim), mode="clip")
    norm = np.sqrt(w.reshape(m, 1), out=view("norm", m, 1))
    inv = np.divide(1.0, norm, out=view("inv", m, 1))
    scale = np.multiply(out, inv, out=view("scale", m, dim))
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
