"""Independent reference implementations used only by the test suite.

Everything here is written with explicit basis-state loops and dense
matrices, deliberately avoiding the reshape/caching tricks of the package
under test, so agreement between the two is meaningful.
"""

from dataclasses import dataclass

import numpy as np

from swapqrn.channel import ground_state
from swapqrn.embedding import (compute_angles, context_window, crz_ring_diagonal,
                               embedding_unitary, kron_layer, rotation_stack)
from swapqrn.gates import check_gamma, damping_probability, swap_coefficients
from swapqrn.tasks import esn_init, gen_uniform, score_narma_features


# ---------------------------------------------------------------------------
# joint-register brute force: memory qubits 0..n-1 (low bits), readout
# qubits n..2n-1 (high bits), index I = b_readout * 2^n + m_memory
# ---------------------------------------------------------------------------

def partial_swap_matrix(gamma: float) -> np.ndarray:
    a = 0.5 * (1.0 + np.exp(1j * np.pi * gamma))
    b = 0.5 * (1.0 - np.exp(1j * np.pi * gamma))
    return np.array(
        [[1, 0, 0, 0],
         [0, a, b, 0],
         [0, b, a, 0],
         [0, 0, 0, 1]], dtype=complex)


def embed_pair(u4: np.ndarray, n_total: int, qa: int, qb: int) -> np.ndarray:
    """Embed a two-qubit gate into n_total qubits, qa as the gate's high bit."""
    dim = 1 << n_total
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        ca = (col >> qa) & 1
        cb = (col >> qb) & 1
        base = col & ~((1 << qa) | (1 << qb))
        for ra in (0, 1):
            for rb in (0, 1):
                row = base | (ra << qa) | (rb << qb)
                out[row, col] = u4[2 * ra + rb, 2 * ca + cb]
    return out


def attach_fresh_readout(rho_mem: np.ndarray) -> np.ndarray:
    """Joint state rho_mem tensor |0..0><0..0| on an equal-size readout register."""
    dim = rho_mem.shape[0]
    ro = np.zeros((dim, dim), dtype=complex)
    ro[0, 0] = 1.0
    return np.kron(ro, rho_mem)


def coupled_joint_state(rho_mem: np.ndarray, gamma: float) -> np.ndarray:
    """Fresh readout attached, then one partial-SWAP on every (mem j, readout j) pair."""
    n = rho_mem.shape[0].bit_length() - 1
    joint = attach_fresh_readout(rho_mem)
    u4 = partial_swap_matrix(gamma)
    for j in range(n):
        g = embed_pair(u4, 2 * n, j, n + j)
        joint = g @ joint @ g.conj().T
    return joint


def born_readout_probs(joint: np.ndarray, n_mem: int) -> np.ndarray:
    """p(b) summed over memory, b indexed with readout qubit 0 as low bit."""
    probs = np.zeros(1 << n_mem)
    for b in range(1 << n_mem):
        for m in range(1 << n_mem):
            i = (b << n_mem) | m
            probs[b] += joint[i, i].real
    return probs


def trace_out_readout(joint: np.ndarray, n_mem: int) -> np.ndarray:
    dim = 1 << n_mem
    out = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        off = b << n_mem
        for m in range(dim):
            for m2 in range(dim):
                out[m, m2] += joint[off | m, off | m2]
    return out


def joint_measure_and_reset(rho_mem: np.ndarray, gamma: float):
    """One coupling round: returns (readout probabilities, post-measurement memory state)."""
    n = rho_mem.shape[0].bit_length() - 1
    joint = coupled_joint_state(rho_mem, gamma)
    return born_readout_probs(joint, n), trace_out_readout(joint, n)


def trajectory_step_per_shot(psi: np.ndarray, gamma: float,
                             rng: np.random.Generator):
    """One measure-and-reset round on a single pure state, one ``rng.random()``
    per qubit in ascending order; returns (collapsed state, outcome int).

    The damping coefficients come from the package so that the collapse
    thresholds, and hence the sampled outcomes, agree bit for bit.
    """
    gamma = check_gamma(gamma)
    psi = np.asarray(psi, dtype=complex).copy()
    n = psi.shape[0].bit_length() - 1
    a, b = swap_coefficients(gamma)
    p = damping_probability(gamma)
    bits = 0
    idx = np.arange(psi.shape[0])
    for q in range(n):
        mask1 = ((idx >> q) & 1).astype(bool)
        w1 = np.sum(np.abs(psi[mask1]) ** 2)
        if rng.random() < p * w1:
            bits |= 1 << q
            new = np.zeros_like(psi)
            new[~mask1] = b * psi[mask1]
            psi = new
        else:
            psi[mask1] *= a
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
    return psi, bits


def trajectory_step_amplitudes(states: np.ndarray, gamma: float,
                               uniforms: np.ndarray):
    """The batched collapse on the amplitudes themselves: each qubit, in
    ascending order, is taken with probability p * (excited norm) of the
    renormalised state, which is then collapsed or damped and renormalised.
    ``uniforms[:, q]`` is qubit q's draw; returns (states, outcome ints)."""
    gamma = check_gamma(gamma)
    states = np.asarray(states, dtype=complex)
    m, dim = states.shape
    n = dim.bit_length() - 1
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


# ---------------------------------------------------------------------------
# dense reservoir step: the full-register U rho U^+ and per-qubit damping
# ---------------------------------------------------------------------------

def damping_moveaxis(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Per-qubit damping, one qubit at a time, each moved to the front axes."""
    a, _ = swap_coefficients(gamma)
    p = damping_probability(gamma)
    n = rho.shape[0].bit_length() - 1
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n))
    for q in range(n):
        axes = (n - 1 - q, 2 * n - 1 - q)
        v = np.moveaxis(t, axes, (0, 1))
        out = np.empty_like(v)
        out[0, 0] = v[0, 0] + p * v[1, 1]
        out[0, 1] = np.conj(a) * v[0, 1]
        out[1, 0] = a * v[1, 0]
        out[1, 1] = (1.0 - p) * v[1, 1]
        t = np.moveaxis(out, (0, 1), axes)
    return t.reshape(rho.shape)


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


def damping_kraus_sum(rho: np.ndarray, gamma: float) -> np.ndarray:
    """sum_b (kron_j K_{b_j}) rho (kron_j K_{b_j})^+ over all 2^n Kraus strings."""
    kp = kraus_pair(gamma)
    kraus = (kp.k0, kp.k1)
    n = rho.shape[0].bit_length() - 1
    out = np.zeros_like(rho, dtype=complex)
    for bits in range(1 << n):
        k = np.ones((1, 1))
        for j in reversed(range(n)):
            k = np.kron(k, kraus[(bits >> j) & 1])
        out += k @ rho @ k.conj().T
    return out


def dense_step(rho, u_context, weights, cfg):
    """One reservoir step with the dense embedding unitary: (state, features)."""
    theta = compute_angles(u_context, weights)
    u = embedding_unitary(theta, weights.w_hidden, cfg.n_repeats)
    rho_emb = u @ rho @ u.conj().T
    p = damping_probability(cfg.gamma)
    diag = np.clip(np.diagonal(rho_emb).real, 0.0, None)
    # weight[b, m] = prod_j P(readout bit b_j | memory bit m_j), read off
    # every (outcome, basis state) pair's bits
    b, m = np.indices((len(diag), len(diag)))
    weight = np.ones((len(diag), len(diag)))
    for j in range(len(diag).bit_length() - 1):
        bj, mj = (b >> j) & 1, (m >> j) & 1
        weight *= np.array([1.0, 1.0 - p, 0.0, p])[2 * bj + mj]
    return damping_moveaxis(rho_emb, cfg.gamma), weight @ diag


def run_exact_per_step(u, weights, cfg):
    """The exact recursion with every step's gates built inside the loop:
    the angles, the rotation stack and both halves' Kronecker blocks per
    step, the damping factor A folded into the first repeat's gates, per
    repeat the two factored products on rho, a conjugate-transposed copy,
    the same two products again and the CRZ phase matrix, the outcome row
    from the clipped diagonal, and a fresh temporary per qubit's transfer.
    Its features are the reference the per-run gate stacks and views of
    ``run_exact`` must equal bit for bit."""
    a, _ = swap_coefficients(cfg.gamma)
    p = damping_probability(cfg.gamma)
    rho = ground_state(cfg.n_mem)
    crz = crz_ring_diagonal(weights.w_hidden)
    phase = crz[:, None] * crz.conj()
    n, dim = cfg.n_mem, 2 ** cfg.n_mem
    povm = factor = np.array([[1.0, 1.0 - p], [0.0, p]])
    for _ in range(n - 1):
        povm = np.kron(povm, factor)
    features = np.empty((len(u), dim))
    for t in range(len(u)):
        rots = rotation_stack(compute_angles(context_window(u, t, cfg.c),
                                             weights))
        gates = rots * [1.0, a]
        for k in range(cfg.n_repeats):
            if k < 2:  # repeat 0 applies R S, every later repeat the same R
                r_hi, r_lo = kron_layer(gates[n // 2:]), kron_layer(gates[:n // 2])
                d_hi, d_lo = len(r_hi), len(r_lo)
                gates = rots
            # (R_hi (x) 1) rho (1 (x) R_lo^+), then the same on its adjoint
            x = rho.reshape(dim * d_hi, d_lo) @ r_lo.conj().T
            x = (r_hi @ x.reshape(d_hi, d_lo * dim)).reshape(dim, dim)
            x = x.conj().T.reshape(dim * d_hi, d_lo) @ r_lo.conj().T
            x = (r_hi @ x.reshape(d_hi, d_lo * dim)).reshape(dim, dim)
            rho = x * phase
        features[t] = povm @ np.clip(np.diagonal(rho).real, 0.0, None)
        for q in range(n):
            view = rho.reshape(1 << (n - 1 - q), 2, 1 << q,
                               1 << (n - 1 - q), 2, 1 << q)
            view[:, 0, :, :, 0] += p * view[:, 1, :, :, 1]
    return features


def run_esn_narma_per_seed(spec, cfg, n_seeds):
    """The ESN baseline's RMSE per seed, one unstacked recursion per seed:
    seed k draws from ``default_rng([cfg.seed, k])``, its states follow
    h <- (1 - a) h + a tanh(W h + w_in u_t) with a 2-D ``W @ h``, and they
    are scored alone.  The stacked recursion of ``run_esn_narma`` must equal
    it bit for bit."""
    z = gen_uniform(spec.seed, spec.n_total, 0.0, 0.5)
    values = np.empty(n_seeds)
    for k in range(n_seeds):
        w, w_in = esn_init(cfg, np.random.default_rng([cfg.seed, k]))
        h = np.zeros(cfg.n_nodes)
        states = np.empty((len(z), cfg.n_nodes))
        for t in range(len(z)):
            h = (1.0 - cfg.leak_rate) * h + cfg.leak_rate * np.tanh(
                w @ h + w_in * z[t])
            states[t] = h
        values[k] = score_narma_features(states, z, spec).metrics.rmse
    return values


# ---------------------------------------------------------------------------
# gates and state checks
# ---------------------------------------------------------------------------

def ground_state_vector(n_qubits: int) -> np.ndarray:
    """|0..0> on n_qubits."""
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def rx(theta: float) -> np.ndarray:
    """Rotation exp(-i theta X / 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta: float) -> np.ndarray:
    """Rotation exp(-i theta Y / 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def crz(theta: float) -> np.ndarray:
    """Controlled-Rz: diag(1, 1, e^{-i theta/2}, e^{+i theta/2}), control on the high bit."""
    return np.diag([1.0, 1.0, np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def is_unitary(u: np.ndarray, atol: float = 1e-12) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= atol)


def check_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD within atol."""
    rho = np.asarray(rho)
    dim = rho.shape[0] if rho.ndim == 2 else 0
    if rho.shape != (dim, dim) or dim & (dim - 1) or dim == 0:
        raise ValueError(f"density matrix must be square with a power-of-two "
                         f"size, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > atol:
        raise ValueError(f"density matrix not Hermitian: max deviation {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density matrix trace {tr:.12f} != 1")
    lo = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if lo < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")


# ---------------------------------------------------------------------------
# misc numeric oracles
# ---------------------------------------------------------------------------

def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def ridge_oracle(x: np.ndarray, y: np.ndarray, alpha: float):
    """Ridge with an explicit unpenalized intercept column, solved densely."""
    n, f = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    pen = alpha * np.eye(f + 1)
    pen[f, f] = 0.0
    wb = np.linalg.solve(xa.T @ xa + pen, xa.T @ y)
    return wb[:f], float(wb[f])


def narma5_oracle(z: np.ndarray) -> np.ndarray:
    """One-step-ahead NARMA-5 targets via padded arrays (no rolling history)."""
    n = len(z)
    y = np.zeros(n + 5)
    zp = np.concatenate([np.zeros(4), z])
    for t in range(n):
        y[t + 5] = (0.3 * y[t + 4]
                    + 0.05 * y[t + 4] * y[t:t + 5].sum()
                    + 1.5 * zp[t] * zp[t + 4]
                    + 0.1)
    return y[5:]


def spectral_radius_arpack(w: np.ndarray) -> float:
    from scipy.sparse.linalg import eigs
    val = eigs(w.astype(complex), k=1, which="LM", return_eigenvectors=False,
               maxiter=10000, tol=0)
    return float(np.abs(val[0]))
