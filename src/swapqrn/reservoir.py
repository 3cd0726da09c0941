"""Recurrent reservoir built from an embedding layer and a measured readout.

One reservoir step embeds the current input window into the memory register
with a parameterised unitary, reads the register through partial-SWAP
couplings to fresh ancilla qubits, and keeps the damped memory state for the
next step.  The per-step feature vector is the probability distribution over
readout bitstrings of the post-embedding state.  Three backends produce the
feature matrix: ``exact``, the deterministic recursion on the reduced memory
density matrix, whose rows are exact Born distributions; ``sampled``, those
rows replaced by multinomial frequencies at ``n_shots`` draws; and
``trajectory``, a Monte-Carlo wavefunction unravelling in which every shot
propagates a pure state through stochastic collapse at each step.
"""

import csv
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import (check_count, check_gamma, check_seed, damping_probability,
                    n_qubits_of, swap_coefficients)
from .channel import (
    PASS_BUFFER, collapse, collapse_tables, collapse_workspace,
    collapse_workspace_bytes, damping_channel, damping_transfer, ground_state,
    outcome_row, povm_matrix, transfer_views,
)
from .embedding import (compute_angles, crz_ring_diagonal, kron_layer,
                        rotation_stack, series_angles)

BACKENDS = ("exact", "sampled", "trajectory")
CHUNK = 4096  # shots per trajectory batch
SPAWN_BATCH = 256  # shot generators alive at once, about 0.9 KB each
HEALTH_TOL = 1e-10  # largest trace drift or Hermiticity residual accepted
# the largest |s^2 (1 + |c|^2) - 1| that damping_frame aims for: the trace
# gained or lost per unit of excited population, qubit and step
FRAME_TOL = 2.0 ** -55


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
        check_count("n_qubits", self.n_qubits, least=2)
        if self.n_qubits % 2 != 0:
            raise ValueError(f"n_qubits must be even, got {self.n_qubits}")
        check_gamma(self.gamma)
        check_count("n_repeats", self.n_repeats)
        check_count("c", self.c)
        if self.n_shots is not None:
            check_count("n_shots", self.n_shots)
        check_seed(self.seed)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
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
    sampled: the held state, the second buffer (the ground state's own
    memory, which the products alternate with; the framed transfer needs no
    scratch) and the CRZ phase of :func:`_kernel_plan` (the final Hermiticity
    check, on the held state alone, allocates two more), 256 KiB for numpy's
    iteration buffers (an upper bound: under ``PASS_BUFFER`` a 16-qubit step
    loop grows by about 19 KB), the :func:`_gate_pairs` stacks
    (two pairs at n_repeats > 1), the POVM matrix and the feature matrix,
    which the sampled draws copy three times more.
    Trajectory: one chunk's uniform block, then the larger of one
    ``SPAWN_BATCH`` of shot generators, about 1 KiB each, and the chunk's
    step arrays (its collapse workspace and embedded batch), which never
    coexist; the collapse tables, up to four dim x dim complex arrays while
    a step's unitary is built, and the count and feature matrices.  Both
    add 256 KiB for the interpreter's own small objects.
    """
    n_mem, dim = cfg.n_mem, 2 ** cfg.n_mem
    need = 256 * n_steps * n_mem
    if cfg.backend == "trajectory":
        rows = min(CHUNK, cfg.n_shots)
        step_arrays = (collapse_workspace_bytes(rows, n_mem)
                       + 16 * rows * dim + 64 * rows)
        generators = 1024 * min(SPAWN_BATCH, rows)
        need += (8 * rows * n_steps * n_mem + max(generators, step_arrays)
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


def _frame_residual(s: float, c: complex) -> float:
    """|s^2 (1 + |c|^2) - 1|, computed exactly, rounded once."""
    (sn, sd), (xn, xd), (yn, yd) = (v.as_integer_ratio()
                                    for v in (s, c.real, c.imag))
    den = (sd * xd * yd) ** 2
    return abs(sn * sn * ((xd * yd) ** 2 + (xn * yd) ** 2 + (yn * xd) ** 2)
               - den) / den


def _floats_near(x: float, k: int) -> list:
    """x and the k floats on each side of it, nearest first."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [hi, lo]
    return out


@lru_cache(maxsize=256)
def damping_frame(gamma: float) -> tuple[float, complex]:
    """(s, c), s^2 ~ p and c ~ A/s, of the frame M = (x)_q diag(1, s) in
    which :func:`run_exact` holds M rho M at gamma.

    There each qubit's transfer r00 += p r11 is one add, r~00 += r~11
    (``channel.damping_transfer``).  M and the scaling S = (x)_q diag(1, A)
    are products over qubits, folded into the gates (:func:`_gate_pairs`):
    every repeat applies M R M^-1, the first M R S M^-1, so the state stays
    framed (M |0><0| M = |0><0|).  The readout divides the populations by
    s^(2 popcount), the final check the state by M's entries.

    The framed transfer adds s^2 r11 and the scaling leaves s^2 |c|^2 r11,
    so the trace changes by s^2 (1 + |c|^2) - 1 per unit of excited
    population, qubit and step, and a run accumulates it.  Plain
    s = fl(sqrt(p)), c = fl(A/s) leave a few 2^-53 there, more than the
    p = 1 - fl(|A|^2) of ``gates.damping_probability``, so the pair is
    searched in exact arithmetic: s over the 16 floats on each side of
    sqrt(p), nearest first; for each, Re c and Im c over 2 floats on each
    side of A/|A| sqrt(1/s^2 - 1), the c that zeroes the residual, or of A/s
    where that c moves s c more than 2^-44 from A.  The first s whose best c
    reaches ``FRAME_TOL`` is kept, else the best pair seen: near gamma = 1
    no s may reach it, since s^2 steps by 2^-52 there and p by 2^-53.
    p = 0 (1 - |A|^2 rounds to 0 below gamma ~ 1e-8) gives (1, A), no frame;
    there the kernel runs no transfer.
    """
    a = complex(swap_coefficients(gamma)[0])
    p = damping_probability(gamma)
    if p == 0.0:
        return 1.0, a
    best = (math.inf, 1.0, a)
    for s in _floats_near(math.sqrt(p), 16):
        num, den = s.as_integer_ratio()  # 1/s^2 - 1, rounded once
        c = a / abs(a) * math.sqrt(max(den * den - num * num, 0) / num ** 2)
        if abs(s * c - a) > 2.0 ** -44:
            c = a / s
        for re in _floats_near(c.real, 2):
            for im in _floats_near(c.imag, 2):
                residual = _frame_residual(s, complex(re, im))
                if residual < best[0]:
                    best = (residual, s, complex(re, im))
        if best[0] <= FRAME_TOL:
            break
    return best[1], best[2]


def _gate_pairs(rots, s, c, n_repeats):
    """(G_hi, G_lo), the Kronecker blocks of the top ceil(n/2) and low
    floor(n/2) qubits, for rotations ``rots`` (..., n_mem, 2, 2), leading
    axes carried through, with the :func:`damping_frame` folded in per 2x2
    gate: diag(1, s) R diag(1, c) (row 1 times s, then column 1 times c),
    then, at ``n_repeats`` > 1, diag(1, s) R diag(1, 1/s) (column 1's real
    and imaginary parts divided by s).  Per 2x2 gate the folds' rounding
    varies with the rotations; rows of a (d, d) block times a fixed fl(s^k)
    rounded alike every step, and the trace drifted by it."""
    n_lo = rots.shape[-3] // 2
    framed = rots * [[1.0], [s]]
    first = framed * [1.0, c]
    if n_repeats > 1:  # a complex divide would scale by fl(1/s) instead
        framed.view(float)[..., 2:] /= s
    pairs = ()
    for gates in (first, framed)[:min(n_repeats, 2)]:
        pairs += (kron_layer(gates[..., n_lo:, :, :]),
                  kron_layer(gates[..., :n_lo, :, :]))
    return pairs


def _kernel_plan(rho, weights, cfg, s=1.0):
    """What every step shares, built once per run.  The held state is rho,
    axes (r_hi, r_lo) x (c_hi, c_lo), in the order (r_lo, c_lo, c_hi, r_hi);
    rho is copied in, and its own C-contiguous memory is then the second
    buffer, which the products alternate with.  Also: each product's
    (input, output) views, the CRZ phase crz_i conj(crz_j) (C-ordered like
    the held state, which it multiplies in place), diag(rho) in the held
    layout, the [lo, hi] :func:`transfer_views` (empty at p = 0), the
    :func:`povm_matrix`, and s^(2 popcount), the factor the
    :func:`damping_frame` puts on each held population (s = 1: no frame)."""
    d_lo, d_hi = 1 << cfg.n_mem // 2, 1 << (cfg.n_mem + 1) // 2
    held = np.empty((d_lo, d_lo, d_hi, d_hi), complex)
    np.copyto(held, rho.reshape(d_hi, d_lo, d_hi, d_lo).transpose(1, 3, 2, 0))
    other = rho.reshape(-1)
    crz = crz_ring_diagonal(weights.w_hidden).reshape(d_hi, d_lo).T
    return (held, [(x.reshape(d, -1).T, y.reshape(-1, d)) for x, y, d in [
                (held, other, d_lo), (other, held, d_lo),
                (held, other, d_hi), (other, held, d_hi)]],
            np.multiply(crz[:, None, None, :], crz.conj()[:, :, None],
                        order="C"),
            held.diagonal().diagonal().T,
            [transfer_views(held, d * d) if damping_probability(cfg.gamma)
             else [] for d in (d_hi, d_lo)],
            povm_matrix(cfg.gamma, cfg.n_mem),
            np.square(s ** np.bitwise_count(np.arange(d_hi * d_lo))).reshape(
                d_hi, d_lo))


def _kernel_step(plan, gates, n_repeats, pending):
    """One step on the held state of ``plan``, without forming U: leaves
    M rho_emb M held (the :func:`damping_frame`) and returns the readout row
    of rho_emb.  Per repeat, four one-call products each multiply the
    leading axis by a factor of ``gates``, the step's :func:`_gate_pairs`
    (the first pair, then the second), and write it last: rows by G_lo,
    columns by conj(G_lo), columns by conj(G_hi), rows by G_hi; then the
    CRZ phase, diagonal like M.  ``pending`` runs the previous step's
    transfer in two halves, each once its qubits' axes lead (lo before the
    first product, hi after the lo ones), as it commutes with the other
    half's products.  The populations are divided by s^(2 popcount) before
    :func:`outcome_row`."""
    held, moves, phase, diag, halves, povm, pops = plan
    for k in range(n_repeats):
        g_hi, g_lo = gates[:2] if k == 0 else gates[-2:]
        factors = (g_lo.T, g_lo.conj().T, g_hi.conj().T, g_hi.T)
        for i, ((x, y), h) in enumerate(zip(moves, factors)):
            if i % 2 == 0 and k == 0 and pending:  # lo, then hi axes lead
                damping_transfer(halves[i // 2])
            np.matmul(x, h, out=y)
        np.multiply(held, phase, out=held)
    return outcome_row(diag.real / pops, povm)


def step(rho, u_context, weights, cfg):
    """Advance the memory state by one input and return (state, features):
    :func:`_kernel_step` embeds rho and gives the readout row, then
    :func:`swapqrn.channel.damping_channel` damps the embedded state.
    ``rho`` must be a Hermitian (2**n_mem, 2**n_mem) matrix: a residual
    max|rho - rho^+| past ``HEALTH_TOL``, a wrong shape, or weights for
    another register raise ``ValueError``.
    """
    _check_weights(weights, cfg)
    state = np.array(rho, dtype=complex, order="C")
    if state.shape != (2 ** cfg.n_mem,) * 2:
        raise ValueError(f"rho has shape {state.shape}, config wants "
                         f"{(2 ** cfg.n_mem,) * 2}")
    _check_health("Hermiticity residual", np.max(np.abs(state - state.conj().T)),
                  "of the input state", ValueError)
    gates = _gate_pairs(rotation_stack(compute_angles(u_context, weights)),
                        1.0, 1.0, cfg.n_repeats)
    plan = _kernel_plan(state, weights, cfg)
    dist = _kernel_step(plan, gates, cfg.n_repeats, False)
    back = plan[0].transpose(3, 0, 2, 1)  # into state's memory, free again
    np.copyto(state.reshape(back.shape), back)
    return damping_channel(state, cfg.gamma), dist


def _check_health(name, value, where, error=FloatingPointError):
    if not value <= HEALTH_TOL:
        raise error(f"{name} {value:.3e} {where} exceeds {HEALTH_TOL:g}")


def run_exact(u, weights, cfg):
    """Feature matrix (T, 2**n_mem) of exact readout distributions.

    The state is held in the :func:`damping_frame`.  The :func:`_gate_pairs`
    stacks and the :func:`_kernel_plan` are built before the step loop,
    which runs under a ``PASS_BUFFER``-entry ufunc buffer; each
    :func:`_kernel_step` also runs the previous step's damping.  The state
    is checked, not repaired: the trace drift |sum of row t - 1| every step
    (the POVM columns sum to 1) and, with all else released, the
    Hermiticity residual max|rho - rho^+| of the final embedded state, taken
    off the frame in place (the channel is trace-norm contractive, so the
    anti-Hermitian part cannot grow between checks); either past
    ``HEALTH_TOL`` raises ``FloatingPointError``.
    """
    _check_weights(weights, cfg)
    u = np.asarray(u, dtype=float)
    check_memory(cfg, len(u))
    s, c = damping_frame(cfg.gamma)
    stacks = _gate_pairs(rotation_stack(series_angles(u, weights)), s, c,
                         cfg.n_repeats)
    plan = _kernel_plan(ground_state(cfg.n_mem), weights, cfg, s)
    features = np.empty((len(u), 2 ** cfg.n_mem))
    with np.errstate():  # restores the caller's buffer size on exit
        np.setbufsize(PASS_BUFFER)
        for t, gates in enumerate(zip(*stacks)):
            features[t] = _kernel_step(plan, gates, cfg.n_repeats, t > 0)
            _check_health("trace drift", abs(features[t].sum() - 1.0),
                          f"at step {t}")
    rho, d_lo = plan[0], len(plan[0])
    stacks, gates, plan = None, None, None  # views into both buffers
    m = s ** np.bitwise_count(np.arange(2 ** cfg.n_mem))  # M's diagonal
    rho /= np.multiply.outer(m[:d_lo], m[:d_lo])[:, :, None, None]
    rho /= np.multiply.outer(m[::d_lo], m[::d_lo])  # so off the frame
    if len(u):  # rho[j, i] of the held rho[i, j]: swap rows and columns
        _check_health("Hermiticity residual", np.max(np.abs(
            rho - rho.transpose(1, 0, 3, 2).conj())), f"at step {len(u) - 1}")
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

    Each shot owns a child generator spawned from ``rng`` and
    :func:`swapqrn.channel.collapse` never mixes rows, so results do not
    depend on the batch size ``CHUNK`` and single-shot streams are
    bit-reproducible.  The collapse tables, the CRZ diagonal and every
    step's rotations are built once per run, each step's unitary inside the
    loop.  Each chunk of up to ``CHUNK`` shots allocates its batch-sized
    arrays once and drops them before the next one does.  Its shot
    generators are spawned and spent ``SPAWN_BATCH`` at a time, the same
    children in the same order as one ``rng.spawn``, and its ground batch
    is written into the collapse workspace's ``out``, which the first step's
    ``matmul`` reads before :func:`~swapqrn.channel.collapse` overwrites it.
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
        for start in range(0, m, SPAWN_BATCH):  # the children of rng.spawn(m)
            size = min(SPAWN_BATCH, m - start)
            for k, child in enumerate(rng.spawn(size), start):
                child.random(out=uniforms[k])
        ws = collapse_workspace(m, n_mem)
        embedded = np.empty((m, dim), dtype=complex)
        states = ws["out"]  # the ground batch, read once by the first matmul
        states.fill(0.0)
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


@contextmanager
def atomic_open(path):
    """Write to a temp file beside ``path``; rename it over ``path`` once done.

    If the write raises, the temp file is removed and ``path`` left as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def features_to_csv(path, features):
    """Write a feature matrix as CSV with a 1-based ``t`` column, atomically."""
    features = np.asarray(features)
    n_mem = n_qubits_of(features.shape[1])
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + bitstring_labels(n_mem))
        for t, row in enumerate(features, start=1):
            writer.writerow([t] + [f"{x:.17g}" for x in row])


def features_from_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        width = len(next(reader)) - 1
        rows = [[float(x) for x in line[1:]] for line in reader]
    return np.array(rows, dtype=float).reshape(len(rows), width)
