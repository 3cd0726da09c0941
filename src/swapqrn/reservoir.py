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
import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from .gates import check_gamma, damping_probability, swap_coefficients
from .channel import (
    collapse, collapse_tables, collapse_workspace, collapse_workspace_bytes,
    damping_scale, damping_transfer, ground_state, outcome_distribution,
)
from .embedding import (context_window, compute_angles, crz_ring_diagonal,
                        kron_layer, rotation_stack)

BACKENDS = ("exact", "sampled", "trajectory")
CHUNK = 4096  # shots per trajectory batch
HEALTH_TOL = 1e-10  # largest trace drift or Hermiticity residual accepted


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
        if self.n_qubits < 2 or self.n_qubits % 2 != 0:
            raise ValueError(
                f"n_qubits must be an even integer >= 2, got {self.n_qubits}")
        check_gamma(self.gamma)
        if self.n_repeats < 1:
            raise ValueError(f"n_repeats must be >= 1, got {self.n_repeats}")
        if self.c < 1:
            raise ValueError(f"context length c must be >= 1, got {self.c}")
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

    Exact and sampled: :func:`_kernel_step` holds up to four arrays of
    rho's 16 * 4**n_mem B at once (the held rho, a rotated copy and the
    matmul pair that replaces it), five at n_repeats > 1, where the caller's
    rho outlives the first repeat; then the cached ``dim x dim`` POVM matrix
    of 8 * 4**n_mem B and the ``(T, dim)`` feature matrix, which the sampled
    backend's draws copy three times more.  Trajectory: the workspace of one
    chunk of ``min(CHUNK, n_shots)`` rows (the collapse buffers of
    :func:`swapqrn.channel.collapse_workspace_bytes`, the embedded batch and
    the ``(rows, T, n_mem)`` uniform block), the ``dim x dim`` collapse
    tables (complex coefficients, int64 sources), up to four ``dim x dim``
    complex arrays while a step's unitary is built, about 1 KiB per spawned
    shot generator, and the count and feature matrices.  Both add 256 KiB for
    the interpreter's own small objects.
    """
    dim = 2 ** cfg.n_mem
    if cfg.backend == "trajectory":
        rows = min(CHUNK, cfg.n_shots)
        need = (collapse_workspace_bytes(rows, cfg.n_mem) + 16 * rows * dim
                + 8 * rows * n_steps * cfg.n_mem + 24 * dim * dim
                + 4 * 16 * dim * dim + 1024 * rows + 2 * 8 * n_steps * dim)
    else:
        held = 5 if cfg.n_repeats > 1 else 4
        copies = 4 if cfg.backend == "sampled" else 1
        need = held * 16 * dim * dim + 8 * dim * dim + copies * 8 * n_steps * dim
    need += 2 ** 18
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"n_qubits={cfg.n_qubits} with the {cfg.backend} backend needs "
            f"about {need / 2 ** 30:.3g} GiB for {n_steps} steps, more than "
            f"the {have / 2 ** 30:.3g} GiB of physical memory")
    return need


def _kernel_step(rho, theta, crz, cfg, fold):
    """One step without forming U, on a rho the caller hands over; returns
    (T(rho_emb), readout row of rho_emb), where T is the damping transfer.

    The rotation layer R = R_hi (x) R_lo acts on the rows, then the columns of
    rho by matmul on reshaped views, and the CRZ ring, whose diagonal is
    ``crz``, scales rows and columns.  ``fold`` is the damping factor A whose
    scaling S = (x)_q diag(1, A) the previous step left out of rho: the first
    repeat applies R S, which is R with column 1 of every 2x2 gate times A.
    """
    rots = rotation_stack(theta)
    n_lo = len(rots) // 2  # qubits in the low half of the register
    dim = len(rho)
    gates = rots * [1.0, fold]
    for k in range(cfg.n_repeats):
        if k < 2:  # repeat 0 applies R S, every later repeat the same R
            r_hi, r_lo = kron_layer(gates[n_lo:]), kron_layer(gates[:n_lo])
            d_hi, d_lo = len(r_hi), len(r_lo)
            gates = rots
        x = r_lo @ rho.reshape(d_hi, d_lo, dim)
        x = (r_hi @ x.reshape(d_hi, d_lo * dim)).reshape(dim * d_hi, d_lo)
        x = r_hi.conj() @ (x @ r_lo.conj().T).reshape(dim, d_hi, d_lo)
        rho = x.reshape(dim, dim)
        rho *= crz[:, None]
        rho *= crz.conj()
    dist = outcome_distribution(rho, cfg.gamma)
    damping_transfer(rho, damping_probability(cfg.gamma))
    return rho, dist


def step(rho, u_context, weights, cfg):
    """Advance the memory state by one input and return (state, features).

    The feature row is the readout distribution of the post-embedding state;
    the returned state has already passed through the damping channel and is
    ready for the next input.
    """
    theta = compute_angles(u_context, weights)
    crz = crz_ring_diagonal(weights.w_hidden)
    state, dist = _kernel_step(np.asarray(rho), theta, crz, cfg, 1.0)
    damping_scale(state, swap_coefficients(cfg.gamma)[0])
    return state, dist


def _check_health(name, value, t):
    if not value <= HEALTH_TOL:
        raise FloatingPointError(
            f"{name} {value:.3e} at step {t} exceeds {HEALTH_TOL:g}")


def run_exact(u, weights, cfg):
    """Feature matrix (T, 2**n_mem) of exact readout distributions.

    The held state is the transferred rho, with each step's damping scaling
    folded into the next step's rotations.  It is checked, not repaired: the
    trace drift |sum of row t - 1| every step (the POVM columns sum to 1) and
    the Hermiticity residual max|rho - rho^+| of the final held state (the
    channel is trace-norm contractive, so the anti-Hermitian rounding part
    cannot grow between checks).  Either past ``HEALTH_TOL`` raises
    ``FloatingPointError``.
    """
    _check_weights(weights, cfg)
    u = np.asarray(u, dtype=float)
    check_memory(cfg, len(u))
    a, _ = swap_coefficients(cfg.gamma)
    rho = ground_state(cfg.n_mem)  # S |0><0| S^+ = |0><0|: folding A is exact
    crz = crz_ring_diagonal(weights.w_hidden)  # once per run
    features = np.empty((len(u), 2 ** cfg.n_mem))
    for t in range(len(u)):
        theta = compute_angles(context_window(u, t, cfg.c), weights)
        rho, features[t] = _kernel_step(rho, theta, crz, cfg, a)
        _check_health("trace drift", abs(features[t].sum() - 1.0), t)
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
    bit-reproducible.  The collapse tables and the CRZ diagonal are built
    once per run.  One workspace of ``min(CHUNK, n_shots)`` rows (the
    embedded batch, the collapse buffers and the uniform block) is allocated
    once and its first rows serve every chunk, so the step loop allocates
    nothing of the batch's size.
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
    rows = min(CHUNK, cfg.n_shots)
    ws = collapse_workspace(rows, n_mem)
    embedded = np.empty((rows, dim), dtype=complex)
    block = np.empty((rows, n_steps, n_mem))

    counts = np.zeros((n_steps, dim), dtype=np.int64)
    done = 0
    while done < cfg.n_shots:
        m = min(CHUNK, cfg.n_shots - done)
        uniforms = block[:m]
        for k, child in enumerate(rng.spawn(m)):
            child.random(out=uniforms[k])
        # the ground batch, in the buffer every collapse returns its states in
        states = ws["out"][:m * dim].reshape(m, dim)
        states.fill(0.0)
        states[:, 0] = 1.0
        for t in range(n_steps):  # one unitary at a time, never all T
            theta = compute_angles(context_window(u, t, cfg.c), weights)
            unitary = crz[:, None] * kron_layer(rotation_stack(theta))
            if cfg.n_repeats > 1:  # embedding_unitary, with crz built once
                unitary = np.linalg.matrix_power(unitary, cfg.n_repeats)
            np.matmul(states, unitary.T, out=embedded[:m])
            states, bits = collapse(embedded[:m], uniforms[:, t], p, coef,
                                    src, ws)
            counts[t] += np.bincount(bits, minlength=dim)
        done += m
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


def features_to_json(path, features, cfg):
    """Write a feature matrix plus its generating config as JSON."""
    features = np.asarray(features)
    n_mem = features.shape[1].bit_length() - 1
    payload = {
        "config": asdict(cfg),
        "bitstrings": bitstring_labels(n_mem),
        "features": features.tolist(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def features_from_json(path):
    """Return (features, config dict) from :func:`features_to_json` output."""
    with open(path) as handle:
        payload = json.load(handle)
    return np.asarray(payload["features"]), payload["config"]
