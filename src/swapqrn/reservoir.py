"""Recurrent reservoir built from an embedding layer and a measured readout.

One reservoir step embeds the current input window into the memory register
with a parameterised unitary, reads the register through partial-SWAP
couplings to fresh ancilla qubits, and keeps the damped memory state for the
next step.  The per-step feature vector is the probability distribution over
readout bitstrings of the post-embedding state.

Three backends produce the feature matrix:

``exact``
    deterministic recursion on the reduced memory density matrix; rows are
    exact Born distributions.
``sampled``
    the exact rows, each replaced by multinomial frequencies at ``n_shots``
    draws, modelling finite measurement statistics.
``trajectory``
    full Monte-Carlo wavefunction unravelling: every shot propagates a pure
    state through stochastic collapse at each step, and rows are bitstring
    frequencies across shots.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .gates import check_gamma, damping_probability, swap_coefficients
from .channel import (
    collapse, collapse_tables, collapse_workspace, collapse_workspace_bytes,
    damping_scale, damping_transfer, ground_state, outcome_row, povm_matrix,
)
from .embedding import (compute_angles, crz_ring_diagonal, kron_layer,
                        rotation_stack, series_angles)

BACKENDS = ("exact", "sampled", "trajectory")
CHUNK = 4096  # shots per trajectory batch
HEALTH_TOL = 1e-10  # largest trace drift or Hermiticity residual accepted


def check_seed(seed):
    """A seed for ``np.random.default_rng``: a non-negative integer."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class ReservoirConfig:
    """Static description of a reservoir run.

    ``n_qubits`` counts memory plus readout qubits together, so the memory
    register holds ``n_qubits // 2`` qubits.  ``n_shots`` is required by the
    stochastic backends and ignored by the exact one.
    """

    n_qubits: int
    gamma: float
    n_repeats: int = 1
    c: int = 1
    n_shots: int | None = None
    seed: int = 42
    backend: str = "exact"

    def __post_init__(self):
        for name in ("n_qubits", "n_repeats", "c", "n_shots"):
            value = getattr(self, name)
            if value is None and name == "n_shots":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_qubits < 2 or self.n_qubits % 2 != 0:
            raise ValueError(
                f"n_qubits must be an even integer >= 2, got {self.n_qubits}")
        check_gamma(self.gamma)
        if self.n_repeats < 1:
            raise ValueError(f"n_repeats must be >= 1, got {self.n_repeats}")
        if self.c < 1:
            raise ValueError(f"context length c must be >= 1, got {self.c}")
        check_seed(self.seed)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.n_shots is not None and self.n_shots < 1:
            raise ValueError(f"n_shots must be >= 1, got {self.n_shots}")
        if self.backend != "exact" and self.n_shots is None:
            raise ValueError(f"backend {self.backend!r} requires n_shots")

    @property
    def n_mem(self):
        return self.n_qubits // 2


def _check_weights(weights, cfg):
    if weights.n_mem != cfg.n_mem:
        raise ValueError(
            f"weights are for {weights.n_mem} memory qubits, "
            f"config wants {cfg.n_mem}")
    if weights.c != cfg.c:
        raise ValueError(
            f"weights are for context length {weights.c}, config wants {cfg.c}")


def check_memory(cfg, n_steps):
    """Bytes a run of ``n_steps`` inputs needs, estimated before anything is
    allocated; raises ``ValueError`` when that exceeds physical memory.

    Both backends first build every step's rotations at once: the
    ``(T, n_mem, 3, 2, 2)`` complex factors and the ``(T, n_mem, 2, 2)``
    stack, 256 B per step and qubit.  Exact and sampled: three arrays of
    rho's 16 * 4**n_mem B (the held rho and the two work buffers of
    :func:`_kernel_step`; the final Hermiticity check holds as many), the
    two 8,192-entry complex buffers, 256 KiB, of numpy's buffered strided
    passes in the transfer, the :func:`_gate_pairs` stacks,
    T * (d_hi**2 + d_lo**2) * 16 B per pair and two pairs at n_repeats > 1,
    the cached ``dim x dim`` POVM matrix of 8 * 4**n_mem B and the
    ``(T, dim)`` feature matrix, which the sampled backend's draws copy
    three times more.  Trajectory: the ``(rows, T, n_mem)`` uniform
    block of one chunk of ``min(CHUNK, n_shots)`` rows, then the larger of
    about 1 KiB per spawned shot generator and the chunk's step arrays (the
    collapse workspace of :func:`swapqrn.channel.collapse_workspace_bytes`,
    the embedded and the ground batch, and 64 B per row for the collapse's
    row-length values), which never coexist; a chunk's arrays are dropped
    before the next chunk allocates.  Then the ``dim x dim`` collapse tables
    (complex coefficients, int64 sources), up to four ``dim x dim`` complex
    arrays while a step's unitary is built, and the count and feature
    matrices.  Both add 256 KiB for the interpreter's own small objects.
    """
    n_mem, dim = cfg.n_mem, 2 ** cfg.n_mem
    need = 256 * n_steps * n_mem
    if cfg.backend == "trajectory":
        rows = min(CHUNK, cfg.n_shots)
        step_arrays = (collapse_workspace_bytes(rows, n_mem)
                       + 2 * 16 * rows * dim + 64 * rows)
        need += (8 * rows * n_steps * n_mem + max(1024 * rows, step_arrays)
                 + 24 * dim * dim + 4 * 16 * dim * dim + 2 * 8 * n_steps * dim)
    else:
        pairs = 2 if cfg.n_repeats > 1 else 1
        d_lo = 2 ** (n_mem // 2)
        copies = 4 if cfg.backend == "sampled" else 1
        need += (3 * 16 * dim * dim + 2 ** 18
                 + pairs * 16 * n_steps * ((dim // d_lo) ** 2 + d_lo ** 2)
                 + 8 * dim * dim + copies * 8 * n_steps * dim)
    need += 2 ** 18
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"n_qubits={cfg.n_qubits} with the {cfg.backend} backend needs "
            f"about {need / 2 ** 30:.3g} GiB for {n_steps} steps, more than "
            f"the {have / 2 ** 30:.3g} GiB of physical memory")
    return need


def _gate_pairs(rots, fold, n_repeats):
    """The (hi, lo) Kronecker blocks of the rotation layer R = R_hi (x) R_lo
    for rotations ``rots`` (..., n_mem, 2, 2), leading axes carried through:
    first of R S, where ``fold`` is the damping factor A of
    S = (x)_q diag(1, A) (column 1 of every 2x2 gate times A), then, only at
    ``n_repeats`` > 1, of R itself."""
    n_lo = rots.shape[-3] // 2  # qubits in the low half of the register
    gates = rots * [1.0, fold]
    pairs = (kron_layer(gates[..., n_lo:, :, :]),
             kron_layer(gates[..., :n_lo, :, :]))
    if n_repeats > 1:
        pairs += (kron_layer(rots[..., n_lo:, :, :]),
                  kron_layer(rots[..., :n_lo, :, :]))
    return pairs


def _kernel_step(rho, work, gates, n_repeats, crz_col, crz_row, povm, p):
    """One step without forming U, in place on the held rho; returns the
    readout row of rho_emb and leaves T(rho_emb) in ``rho``, where T is the
    damping transfer.

    ``gates`` is the step's slice of :func:`_gate_pairs`: the first repeat
    applies its folded pair, every later one the unfolded pair.  R acts on
    the rows, then the columns of rho by matmul on reshaped views, and the
    CRZ ring, with diagonal ``crz_col[:, 0]`` and its conjugate ``crz_row``,
    scales rows and columns.  The products alternate between the two
    rho-sized buffers of ``work`` and the last writes back into ``rho``, so
    a step allocates nothing of rho's size; the transfer's quarter-size
    buffer is the front of ``work[0]``.  ``povm`` is the
    :func:`povm_matrix` and ``p`` the damping probability.
    """
    dim = len(rho)
    w0, w1 = work
    for k in range(n_repeats):
        if k < 2:
            r_hi, r_lo = gates[2 * k:2 * k + 2]
            c_hi, c_lo = r_hi.conj(), r_lo.conj().T
            d_hi, d_lo = len(r_hi), len(r_lo)
        x = np.matmul(r_lo, rho.reshape(d_hi, d_lo, dim),
                      out=w0.reshape(d_hi, d_lo, dim))
        y = np.matmul(r_hi, x.reshape(d_hi, d_lo * dim),
                      out=w1.reshape(d_hi, d_lo * dim))
        x = np.matmul(y.reshape(dim * d_hi, d_lo), c_lo,
                      out=w0.reshape(dim * d_hi, d_lo))
        np.matmul(c_hi, x.reshape(dim, d_hi, d_lo),
                  out=rho.reshape(dim, d_hi, d_lo))
        rho *= crz_col
        rho *= crz_row
    dist = outcome_row(rho, povm)
    damping_transfer(rho, p, w0.reshape(-1)[:rho.size // 4])
    return dist


def _step_constants(weights, cfg):
    """The arguments of :func:`_kernel_step` after ``n_repeats``: what no
    step changes."""
    crz = crz_ring_diagonal(weights.w_hidden)
    return (crz[:, None], crz.conj(), povm_matrix(cfg.gamma, cfg.n_mem),
            damping_probability(cfg.gamma))


def step(rho, u_context, weights, cfg):
    """Advance the memory state by one input and return (state, features).

    The feature row is the readout distribution of the post-embedding state;
    the returned state has already passed through the damping channel and is
    ready for the next input.
    """
    state = np.array(rho, dtype=complex)
    rots = rotation_stack(compute_angles(u_context, weights))
    dist = _kernel_step(state, np.empty((2,) + state.shape, complex),
                        _gate_pairs(rots, 1.0, cfg.n_repeats), cfg.n_repeats,
                        *_step_constants(weights, cfg))
    damping_scale(state, swap_coefficients(cfg.gamma)[0])
    return state, dist


def _check_health(name, value, t):
    if not value <= HEALTH_TOL:
        raise FloatingPointError(
            f"{name} {value:.3e} at step {t} exceeds {HEALTH_TOL:g}")


def run_exact(u, weights, cfg):
    """Feature matrix (T, 2**n_mem) of exact readout distributions.

    Everything that does not read rho is built once per run before the step
    loop: every step's angles and rotations at once, the :func:`_gate_pairs`
    as (T, d, d) stacks, the :func:`_step_constants` and the two work
    buffers of :func:`_kernel_step`.  The held state is
    the transferred rho, with each step's damping scaling folded into the
    next step's rotations.  It is checked, not repaired: the trace drift
    |sum of row t - 1| every step (the POVM columns sum to 1) and the
    Hermiticity residual max|rho - rho^+| of the final held state (the
    channel is trace-norm contractive, so the anti-Hermitian rounding part
    cannot grow between checks).  Either past ``HEALTH_TOL`` raises
    ``FloatingPointError``.  The gate stacks and work buffers are released
    before the final check allocates.
    """
    _check_weights(weights, cfg)
    u = np.asarray(u, dtype=float)
    check_memory(cfg, len(u))
    a, _ = swap_coefficients(cfg.gamma)
    rho = ground_state(cfg.n_mem)  # S |0><0| S^+ = |0><0|: folding A is exact
    stacks = _gate_pairs(rotation_stack(series_angles(u, weights)), a,
                         cfg.n_repeats)
    constants = _step_constants(weights, cfg)
    work = np.empty((2,) + rho.shape, complex)
    features = np.empty((len(u), 2 ** cfg.n_mem))
    for t, gates in enumerate(zip(*stacks)):
        features[t] = _kernel_step(rho, work, gates, cfg.n_repeats, *constants)
        _check_health("trace drift", abs(features[t].sum() - 1.0), t)
    stacks = gates = work = None  # gates holds views into the stacks
    if len(u):
        _check_health("Hermiticity residual",
                      np.max(np.abs(rho - rho.conj().T)), len(u) - 1)
    return features


def run_sampled(u, weights, cfg, rng):
    """Feature matrix of multinomial frequencies at ``cfg.n_shots`` draws.

    The memory state itself follows the exact recursion; only the recorded
    rows carry shot noise, matching a device that re-prepares the identical
    reservoir for every measurement batch.  Rows are drawn in time order.
    """
    if cfg.n_shots is None:
        raise ValueError("run_sampled requires cfg.n_shots")
    rows = run_exact(u, weights, cfg)
    counts = rng.multinomial(cfg.n_shots, rows / rows.sum(axis=1, keepdims=True))
    return counts / cfg.n_shots


def run_trajectories(u, weights, cfg, rng):
    """Feature matrix of bitstring frequencies over ``cfg.n_shots`` pure-state
    trajectories.

    Each shot owns an independent child generator spawned from ``rng`` and
    :func:`swapqrn.channel.collapse` never mixes rows, so results do not
    depend on the batch size ``CHUNK`` and single-shot streams are
    bit-reproducible.  The collapse tables, the CRZ diagonal and every
    step's rotations are built once per run; each step's unitary is built
    from its rotations inside the loop.  Each chunk of up to ``CHUNK`` shots
    allocates its own arrays once (the uniform block, the collapse
    workspace, the embedded batch and the ground batch), so the step loop
    allocates nothing of the batch's size, and drops them before the next
    chunk allocates.
    """
    _check_weights(weights, cfg)
    if cfg.n_shots is None:
        raise ValueError("run_trajectories requires cfg.n_shots")
    u = np.asarray(u, dtype=float)
    check_memory(cfg, len(u))
    n_steps, n_mem = len(u), cfg.n_mem
    dim = 2 ** n_mem
    p = damping_probability(cfg.gamma)
    coef, src = collapse_tables(cfg.gamma, n_mem)
    crz = crz_ring_diagonal(weights.w_hidden)
    rots = rotation_stack(series_angles(u, weights))

    counts = np.zeros((n_steps, dim), dtype=np.int64)
    for done in range(0, cfg.n_shots, CHUNK):
        m = min(CHUNK, cfg.n_shots - done)
        uniforms = np.empty((m, n_steps, n_mem))
        for k, child in enumerate(rng.spawn(m)):
            child.random(out=uniforms[k])
        ws = collapse_workspace(m, n_mem)
        embedded = np.empty((m, dim), dtype=complex)
        states = np.zeros((m, dim), dtype=complex)
        states[:, 0] = 1.0
        for t in range(n_steps):  # one unitary at a time, never all T
            unitary = crz[:, None] * kron_layer(rots[t])
            if cfg.n_repeats > 1:  # embedding_unitary, with crz built once
                unitary = np.linalg.matrix_power(unitary, cfg.n_repeats)
            np.matmul(states, unitary.T, out=embedded)
            states, bits = collapse(embedded, uniforms[:, t], p, coef, src, ws)
            counts[t] += np.bincount(bits, minlength=dim)
        del uniforms, ws, embedded, states  # before the next chunk allocates
    return counts / cfg.n_shots


def run_features(u, weights, cfg, rng=None):
    """Dispatch to the backend named in ``cfg``."""
    if cfg.backend == "exact":
        return run_exact(u, weights, cfg)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if cfg.backend == "sampled":
        return run_sampled(u, weights, cfg, rng)
    return run_trajectories(u, weights, cfg, rng)


def bitstring_labels(n_mem):
    """Readout bitstring column labels in numeric (lexicographic) order."""
    return [format(i, f"0{n_mem}b") for i in range(2 ** n_mem)]


def features_to_csv(path, features):
    """Write a feature matrix as CSV with a 1-based ``t`` column."""
    features = np.asarray(features)
    n_mem = features.shape[1].bit_length() - 1
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + bitstring_labels(n_mem))
        for t, row in enumerate(features, start=1):
            writer.writerow([t] + [f"{x:.17g}" for x in row])


def features_from_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = [[float(x) for x in line[1:]] for line in reader]
    return np.asarray(rows)
