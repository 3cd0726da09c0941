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
from dataclasses import dataclass, asdict

import numpy as np

from .gates import check_gamma
from .channel import (
    ground_state, damping_channel, outcome_distribution, rehermitize,
    trajectory_step,
)
from .embedding import (context_window, compute_angles, crz_ring_diagonal,
                        embedding_unitary, kron_layer, rotation_stack)

BACKENDS = ("exact", "sampled", "trajectory")


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


def _kernel_step(rho, theta, crz, cfg):
    """One step without forming U: the rotation layer R = R_hi (x) R_lo acts
    on the rows, then the columns of rho by matmul on reshaped views, and the
    CRZ ring, whose diagonal is ``crz``, scales rows and columns."""
    rots = rotation_stack(theta)
    n_lo = len(rots) // 2  # qubits in the low half of the register
    r_hi, r_lo = kron_layer(rots[n_lo:]), kron_layer(rots[:n_lo])
    d_hi, d_lo, dim = len(r_hi), len(r_lo), len(rho)
    for _ in range(cfg.n_repeats):
        x = r_lo @ rho.reshape(d_hi, d_lo, dim)
        x = (r_hi @ x.reshape(d_hi, d_lo * dim)).reshape(dim * d_hi, d_lo)
        x = r_hi.conj() @ (x @ r_lo.conj().T).reshape(dim, d_hi, d_lo)
        rho = x.reshape(dim, dim)
        rho *= crz[:, None]
        rho *= crz.conj()
    dist = outcome_distribution(rho, cfg.gamma)
    return damping_channel(rho, cfg.gamma), dist


def step(rho, u_context, weights, cfg):
    """Advance the memory state by one input and return (state, features).

    The feature row is the readout distribution of the post-embedding state;
    the returned state has already passed through the damping channel and is
    ready for the next input.
    """
    theta = compute_angles(u_context, weights)
    crz = crz_ring_diagonal(weights.w_hidden)
    return _kernel_step(np.asarray(rho), theta, crz, cfg)


def run_exact(u, weights, cfg):
    """Feature matrix (T, 2**n_mem) of exact readout distributions."""
    _check_weights(weights, cfg)
    u = np.asarray(u, dtype=float)
    rho = ground_state(cfg.n_mem)
    crz = crz_ring_diagonal(weights.w_hidden)  # once per run
    features = np.empty((len(u), 2 ** cfg.n_mem))
    for t in range(len(u)):
        theta = compute_angles(context_window(u, t, cfg.c), weights)
        rho, features[t] = _kernel_step(rho, theta, crz, cfg)
        rho = rehermitize(rho)
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


def _embedding_series(u, weights, cfg):
    """All per-step embedding unitaries for an input sequence."""
    return [
        embedding_unitary(
            compute_angles(context_window(u, t, cfg.c), weights),
            weights.w_hidden, cfg.n_repeats)
        for t in range(len(u))
    ]


def run_trajectories(u, weights, cfg, rng, chunk=4096):
    """Feature matrix of bitstring frequencies over ``cfg.n_shots`` pure-state
    trajectories.

    Each shot owns an independent child generator spawned from ``rng`` and
    :func:`swapqrn.channel.trajectory_step` never mixes rows, so results do
    not depend on ``chunk`` and single-shot streams are bit-reproducible.
    """
    _check_weights(weights, cfg)
    if cfg.n_shots is None:
        raise ValueError("run_trajectories requires cfg.n_shots")
    u = np.asarray(u, dtype=float)
    n_steps, n_mem = len(u), cfg.n_mem
    dim = 2 ** n_mem
    unitaries = _embedding_series(u, weights, cfg)

    counts = np.zeros((n_steps, dim), dtype=np.int64)
    done = 0
    while done < cfg.n_shots:
        m = min(chunk, cfg.n_shots - done)
        uniforms = np.stack([child.random((n_steps, n_mem))
                             for child in rng.spawn(m)])
        states = np.zeros((m, dim), dtype=complex)
        states[:, 0] = 1.0
        for t in range(n_steps):
            states, bits = trajectory_step(states @ unitaries[t].T, cfg.gamma,
                                           uniforms[:, t])
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
