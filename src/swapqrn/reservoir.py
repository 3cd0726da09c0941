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
    transfer_views,
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

    Counted: every step's rotations, 256 B per step and qubit.  Exact and
    sampled: the three rho-sized arrays of :func:`_kernel_plan` (held rho,
    work buffer, CRZ phase matrix; the final Hermiticity check holds as
    many), numpy's 256 KiB of buffers for the strided transfer, the
    :func:`_gate_pairs` stacks (two pairs at n_repeats > 1), the POVM matrix
    and the feature matrix, which the sampled draws copy three times more.
    Trajectory: one chunk's uniform block, then the larger of about 1 KiB
    per spawned shot generator and the chunk's step arrays, which never
    coexist; the collapse tables, up to four dim x dim complex arrays while
    a step's unitary is built, and the count and feature matrices.  Both
    add 256 KiB for the interpreter's own small objects.
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
    return check_physical_memory(need, f"n_qubits={cfg.n_qubits} with the "
                                 f"{cfg.backend} backend for {n_steps} steps")


def check_physical_memory(need, what):
    """``need`` bytes; ``ValueError`` naming ``what`` past physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{what} needs about {need / 2 ** 30:.3g} GiB, more "
                         f"than the {have / 2 ** 30:.3g} GiB of physical memory")
    return need


def _gate_pairs(rots, fold, n_repeats):
    """(r_hi, c_lo) of the rotation layer R = R_hi (x) R_lo for rotations
    ``rots`` (..., n_mem, 2, 2), leading axes carried through: R_hi and
    R_lo^+ of R S, where ``fold`` is the factor A of S = (x)_q diag(1, A)
    (column 1 of every 2x2 gate times A), then, at ``n_repeats`` > 1, of R."""
    n_lo = rots.shape[-3] // 2  # qubits in the low half of the register
    pairs = ()
    for gates in (rots * [1.0, fold], rots)[:min(n_repeats, 2)]:
        pairs += (kron_layer(gates[..., n_lo:, :, :]),
                  kron_layer(gates[..., :n_lo, :, :]).conj().swapaxes(-1, -2))
    return pairs


def _kernel_plan(rho, weights, cfg):
    """What every step on the held, C-contiguous ``rho`` shares, built once
    per run: rho and one work buffer, each also as (dim d_hi, d_lo) columns
    and (d_hi, d_lo dim) rows, rho's transpose, its :func:`transfer_views`
    with the front of the work buffer as scratch, the CRZ phase
    crz_i conj(crz_j), the :func:`povm_matrix` and the damping probability."""
    work, d_lo = np.empty_like(rho), 1 << cfg.n_mem // 2
    cols, rows = (-1, d_lo), (len(rho) // d_lo, -1)
    crz = crz_ring_diagonal(weights.w_hidden)
    return (rho, work, rho.T, rho.reshape(cols), rho.reshape(rows),
            work.reshape(cols), work.reshape(rows),
            transfer_views(rho, work.reshape(-1)[:rho.size // 4]),
            crz[:, None] * crz.conj(), povm_matrix(cfg.gamma, cfg.n_mem),
            damping_probability(cfg.gamma))


def _kernel_step(plan, gates, n_repeats):
    """One step without forming U, in place on the held rho of ``plan``;
    returns the readout row of rho_emb and leaves T(rho_emb), T the damping
    transfer, in rho.  ``gates`` is the step's slice of :func:`_gate_pairs`:
    the first repeat applies its folded pair G, every later one the unfolded
    pair.  rho is Hermitian, so G rho G^+ = G (G rho)^+: a repeat runs the
    two one-call products W = (G_hi (x) 1) rho (1 (x) G_lo^+) on rho and
    again on W^+, then the CRZ ring as one phase pass.  The six moves
    alternate between rho and the work buffer and end in rho.
    """
    (rho, work, rho_t, rho_cols, rho_rows, work_cols, work_rows, transfer,
     phase, povm, p) = plan
    for k in range(n_repeats):
        r_hi, c_lo = gates[:2] if k == 0 else gates[-2:]
        np.matmul(rho_cols, c_lo, out=work_cols)
        np.matmul(r_hi, work_rows, out=rho_rows)
        np.copyto(work, rho_t)  # np.conjugate(rho_t, out=) would buffer
        np.conjugate(work, out=work)
        np.matmul(work_cols, c_lo, out=rho_cols)
        np.matmul(r_hi, rho_rows, out=work_rows)
        np.multiply(work, phase, out=rho)
    dist = outcome_row(rho, povm)
    damping_transfer(transfer, p)
    return dist


def step(rho, u_context, weights, cfg):
    """Advance the memory state by one input and return (state, features).

    The feature row is the readout distribution of the post-embedding state;
    the returned state has already passed through the damping channel and is
    ready for the next input.  ``rho`` must be Hermitian: a residual
    max|rho - rho^+| past ``HEALTH_TOL`` raises ``ValueError``.
    """
    state = np.array(rho, dtype=complex, order="C")
    _check_health("Hermiticity residual", np.max(np.abs(state - state.conj().T)),
                  "of the input state", ValueError)
    gates = _gate_pairs(rotation_stack(compute_angles(u_context, weights)),
                        1.0, cfg.n_repeats)
    dist = _kernel_step(_kernel_plan(state, weights, cfg), gates, cfg.n_repeats)
    damping_scale(state, swap_coefficients(cfg.gamma)[0])
    return state, dist


def _check_health(name, value, where, error=FloatingPointError):
    if not value <= HEALTH_TOL:
        raise error(f"{name} {value:.3e} {where} exceeds {HEALTH_TOL:g}")


def run_exact(u, weights, cfg):
    """Feature matrix (T, 2**n_mem) of exact readout distributions.

    Every step's angles, rotations and :func:`_gate_pairs` stacks, and the
    :func:`_kernel_plan`, are built once, before the step loop.  The held
    state is the transferred rho, with each step's damping scaling folded
    into the next step's rotations.  It is checked, not repaired: the trace
    drift |sum of row t - 1| every step (the POVM columns sum to 1) and the
    Hermiticity residual max|rho - rho^+| of the final state (the channel is
    trace-norm contractive, so the anti-Hermitian rounding part cannot grow
    between checks); either past ``HEALTH_TOL`` raises ``FloatingPointError``.
    The stacks, the work buffer and the phase matrix are released first.
    """
    _check_weights(weights, cfg)
    u = np.asarray(u, dtype=float)
    check_memory(cfg, len(u))
    a, _ = swap_coefficients(cfg.gamma)
    rho = ground_state(cfg.n_mem)  # S |0><0| S^+ = |0><0|: folding A is exact
    stacks = _gate_pairs(rotation_stack(series_angles(u, weights)), a,
                         cfg.n_repeats)
    plan = _kernel_plan(rho, weights, cfg)
    features = np.empty((len(u), 2 ** cfg.n_mem))
    for t, gates in enumerate(zip(*stacks)):
        features[t] = _kernel_step(plan, gates, cfg.n_repeats)
        _check_health("trace drift", abs(features[t].sum() - 1.0),
                      f"at step {t}")
    stacks = gates = plan = None  # gates holds views into the stacks
    if len(u):
        _check_health("Hermiticity residual",
                      np.max(np.abs(rho - rho.conj().T)), f"at step {len(u) - 1}")
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
