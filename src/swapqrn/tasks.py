"""Benchmark tasks: short-term memory capacity, NARMA-5, and a leaky
echo-state-network baseline, with the shared washout/train/test protocol.

Alignment conventions.  Feature row ``t`` is the readout distribution emitted
after the reservoir consumed input ``t``.  For memory recall with delay
``tau <= 0`` the row is paired with the past input ``u[t + tau]``.  For
NARMA-5 the row is paired with the one-step-ahead target produced by the
recursion after seeing ``z[t]``; the first five targets lean on zero-padded
history and are dropped.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .embedding import init_weights
from .gates import check_count, check_integer, check_seed
from .reservoir import check_physical_memory, run_features
from .readout import (
    SCORING_THREADS, SHORT_DELAYS, Metrics, blas_threads, check_alpha,
    ridge_fit, predict, r_squared, rmse, mean_rmse_short,
)

COUNTS = {"n_total": 1, "n_train": 1, "n_test": 1, "n_washout": 0}  # least values


def _check_counts(spec):
    """A task spec's counts, each at least its value in COUNTS, and its seed."""
    for name, least in COUNTS.items():
        check_count(name, getattr(spec, name), least)
    check_seed(spec.seed)


@dataclass(frozen=True)
class StmcSpec:
    """Memory-recall benchmark: reconstruct u[t + tau] from the feature row."""

    n_total: int = 1000
    n_train: int = 700
    n_test: int = 275
    n_washout: int = 15
    alpha: float = 1e-5
    seed: int = 42
    delays: tuple[int, ...] = tuple(range(0, -11, -1))

    def __post_init__(self):
        _check_counts(self)
        for tau in self.delays:
            check_integer("delays", tau)
        if any(tau > 0 for tau in self.delays):
            raise ValueError("delays must be <= 0")
        check_alpha(self.alpha, reservoir_rows=True)
        # the longest delay and the washout come off the front, and one
        # sample must follow the training split
        need = (self.n_washout + self.n_train + 1
                + max((-tau for tau in self.delays), default=0))
        if self.n_total < need:
            raise ValueError(f"n_total={self.n_total} leaves no test sample; "
                             f"these delays, washout and n_train need {need}")


@dataclass(frozen=True)
class NarmaSpec:
    """One-step-ahead NARMA-5 prediction benchmark.

    The washout is carved out of the first ``n_train`` aligned pairs; the
    test slice is whatever follows them, truncated to ``n_test``.
    """

    n_total: int = 1000
    n_train: int = 750
    n_test: int = 250
    n_washout: int = 15
    alpha: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        _check_counts(self)
        if self.n_washout >= self.n_train:
            raise ValueError("washout must leave training samples")
        # 0 stays legal: the ESN baseline's tanh states are not singular
        check_alpha(self.alpha)
        # the first five targets are dropped, and one sample must follow
        # the training split
        if self.n_total < self.n_train + 6:
            raise ValueError(f"n_total={self.n_total} leaves no test sample; "
                             f"n_train={self.n_train} needs {self.n_train + 6}")


# a spectral radius past ESN_RANGE can overflow W h for a badly conditioned
# draw, and a leak rate below 1 / ESN_RANGE makes states whose Gram matrix
# can underflow; both lie far beyond any useful network
ESN_RANGE = 1e100


@dataclass(frozen=True)
class EsnConfig:
    """Leaky echo-state network with tanh activation."""

    n_nodes: int
    spectral_radius: float = 0.9
    leak_rate: float = 0.5
    seed: int = 42

    def __post_init__(self):
        check_count("n_nodes", self.n_nodes)
        if not 1 / ESN_RANGE <= self.leak_rate <= 1.0:
            raise ValueError(f"leak_rate must be in [{1 / ESN_RANGE:g}, 1], "
                             f"got {self.leak_rate}")
        if not 0.0 < self.spectral_radius <= ESN_RANGE:
            raise ValueError(f"spectral_radius must be in (0, {ESN_RANGE:g}], "
                             f"got {self.spectral_radius}")
        check_seed(self.seed)


@dataclass(frozen=True)
class StmcResult:
    metrics: dict
    mean_rmse_short: float | None
    n_train_used: dict
    n_test_used: dict


@dataclass(frozen=True)
class NarmaResult:
    metrics: Metrics
    target_std: float
    n_train_used: int
    n_test_used: int


@dataclass(frozen=True)
class EsnNarmaResult:
    rmse: np.ndarray
    median: float
    q1: float
    q3: float


def gen_uniform(seed, n, lo=0.0, hi=1.0):
    """Deterministic i.i.d. uniform series on [lo, hi)."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi})")
    return lo + (hi - lo) * np.random.default_rng(seed).random(n)


def narma5(z):
    """Aligned (input, target) pair for the fifth-order NARMA recursion.

    Target t is produced after consuming input t; the first five pairs are
    dropped because their recursion window reaches into the zero-padded
    pre-history.
    """
    z = np.asarray(z, dtype=float)
    if len(z) < 6:
        raise ValueError(f"need at least 6 samples, got {len(z)}")
    history = deque([0.0] * 5, maxlen=5)
    y = np.empty(len(z))
    for t in range(len(z)):
        prev = history[-1]
        z_old = z[t - 4] if t >= 4 else 0.0
        y[t] = 0.3 * prev + 0.05 * prev * sum(history) + 1.5 * z_old * z[t] + 0.1
        history.append(y[t])
    return z[5:], y[5:]


def stmc_align(features, u, tau, n_washout=15):
    """Pair feature rows with delayed inputs, then drop the washout.

    Row ``t`` is matched with ``u[t + tau]`` for ``tau <= 0``; rows whose
    target index falls before the series start are dropped, and the first
    ``n_washout`` surviving pairs are discarded.
    """
    if tau > 0:
        raise ValueError(f"tau must be <= 0, got {tau}")
    features = np.asarray(features)
    u = np.asarray(u, dtype=float)
    if len(features) != len(u):
        raise ValueError(
            f"features ({len(features)} rows) and u ({len(u)}) disagree")
    rows = features[-tau:]
    targets = u[: len(u) + tau]
    return rows[n_washout:], targets[n_washout:]


def _fit_and_score(rows, targets, n_train, n_test, alpha):
    if len(rows) < n_train + 1:
        raise ValueError(
            f"only {len(rows)} aligned samples for n_train={n_train}")
    x_test = rows[n_train:n_train + n_test]
    y_test = targets[n_train:n_train + n_test]
    with blas_threads(SCORING_THREADS):  # the same bits on every host
        pred = predict(ridge_fit(rows[:n_train], targets[:n_train], alpha), x_test)
        metrics = Metrics(r2=r_squared(pred, y_test), rmse=rmse(pred, y_test))
    return metrics, y_test


def score_stmc_features(features, u, spec):
    """Per-delay ridge scores for a precomputed feature matrix."""
    metrics, n_train_used, n_test_used = {}, {}, {}
    for tau in spec.delays:
        rows, targets = stmc_align(features, u, tau, spec.n_washout)
        metrics[tau], y_test = _fit_and_score(
            rows, targets, spec.n_train, spec.n_test, spec.alpha)
        n_train_used[tau] = spec.n_train
        n_test_used[tau] = len(y_test)
    short = (mean_rmse_short(metrics)
             if all(d in metrics for d in SHORT_DELAYS) else None)
    return StmcResult(metrics=metrics, mean_rmse_short=short,
                      n_train_used=n_train_used, n_test_used=n_test_used)


def run_stmc(spec, rc, weights=None, rng=None):
    """Full memory-capacity protocol: generate inputs, run the reservoir,
    fit one ridge readout per delay."""
    u = gen_uniform(spec.seed, spec.n_total, 0.0, 1.0)
    if weights is None:
        weights = init_weights(rc.seed, rc.c, rc.n_mem)
    features = run_features(u, weights, rc, rng)
    return score_stmc_features(features, u, spec)


def score_narma_features(features, z, spec, y_aligned=None):
    """NARMA-5 ridge score for a precomputed feature matrix.

    The washout is removed from the training block only; the test slice is
    the aligned tail, truncated to ``spec.n_test`` samples.  ``y_aligned``
    may hold the targets of ``narma5(z)``, computed once for many scores.
    """
    if y_aligned is None:
        y_aligned = narma5(z)[1]
    rows = np.asarray(features)[5:]
    if len(rows) != len(y_aligned):
        raise ValueError("features and input series disagree in length")
    w = spec.n_washout
    metrics, y_test = _fit_and_score(rows[w:], y_aligned[w:], spec.n_train - w,
                                     spec.n_test, spec.alpha)
    return NarmaResult(
        metrics=metrics, target_std=float(np.std(y_test)),
        n_train_used=spec.n_train - spec.n_washout,
        n_test_used=len(y_test))


def run_narma(spec, rc, weights=None, rng=None):
    """Full NARMA-5 protocol on reservoir features."""
    check_alpha(spec.alpha, reservoir_rows=True)
    z = gen_uniform(spec.seed, spec.n_total, 0.0, 0.5)
    if weights is None:
        weights = init_weights(rc.seed, rc.c, rc.n_mem)
    features = run_features(z, weights, rc, rng)
    return score_narma_features(features, z, spec)


def esn_init(cfg, rng):
    """Random recurrent and input weights; W rescaled to the target
    spectral radius."""
    w = rng.uniform(-1.0, 1.0, (cfg.n_nodes, cfg.n_nodes))
    radius = float(np.max(np.abs(np.linalg.eigvals(w))))
    if radius == 0.0:
        raise ValueError("drawn recurrent matrix has zero spectral radius")
    w *= cfg.spectral_radius / radius
    w_in = rng.uniform(-1.0, 1.0, cfg.n_nodes)
    return w, w_in


def esn_states(u, w, w_in, leak_rate, h0=None):
    """Leaky-integrated states (T, ..., n), one row per input sample, of the
    networks ``w`` (..., n, n), ``w_in`` and ``h0`` (..., n)."""
    u = np.asarray(u, dtype=float)
    h = np.zeros(w.shape[:-1]) if h0 is None else np.asarray(h0, dtype=float)
    states = np.empty((len(u),) + h.shape)
    for t in range(len(u)):
        h = (1.0 - leak_rate) * h + leak_rate * np.tanh(
            (w @ h[..., None])[..., 0] + w_in * u[t])
        states[t] = h
    return states


def check_esn_memory(spec, cfg, n_seeds):
    """Bytes of :func:`run_esn_narma`'s states and weights, as drawn and as
    stacked; ``ValueError`` past physical memory."""
    need = 8 * n_seeds * cfg.n_nodes * (spec.n_total + 2 * cfg.n_nodes + 2)
    return check_physical_memory(
        need, f"an ESN of {cfg.n_nodes} nodes at {n_seeds} seeds")


def check_esn_alpha(spec, cfg):
    """``ValueError`` unless ``spec.alpha > 0`` or the unpenalised design is
    regular: ``cfg.spectral_radius <= 1``, as past the echo-state regime
    tanh saturates and a node whose state turns constant makes it singular,
    and more training rows than nodes, as centring leaves n rows of rank at
    most n - 1."""
    if spec.alpha == 0 and cfg.spectral_radius > 1:
        raise ValueError(f"alpha = 0 needs spectral_radius <= 1, "
                         f"got {cfg.spectral_radius}")
    rows = spec.n_train - spec.n_washout
    if spec.alpha == 0 and rows <= cfg.n_nodes:
        raise ValueError(f"alpha = 0 needs n_train - n_washout > n_nodes = "
                         f"{cfg.n_nodes}, got {rows}")


def run_esn_narma(spec, cfg, n_seeds):
    """NARMA-5 RMSE distribution over seeded ESN draws, all seeds stepped in
    one recursion; seed k draws from ``default_rng([cfg.seed, k])``.  The
    states and the weights, as drawn and as stacked, must fit in memory,
    and the fit must pass :func:`check_esn_alpha`."""
    check_count("n_seeds", n_seeds)
    check_esn_alpha(spec, cfg)
    check_esn_memory(spec, cfg, n_seeds)
    z = gen_uniform(spec.seed, spec.n_total, 0.0, 0.5)
    rngs = (np.random.default_rng([cfg.seed, k]) for k in range(n_seeds))
    w, w_in = map(np.stack, zip(*(esn_init(cfg, rng) for rng in rngs)))
    states = esn_states(z, w, w_in, cfg.leak_rate)
    _, y = narma5(z)  # one target recursion for every seed
    values = np.array([score_narma_features(x, z, spec, y).metrics.rmse
                       for x in states.swapaxes(0, 1)])
    return EsnNarmaResult(rmse=values, median=float(np.median(values)),
                          q1=float(np.percentile(values, 25)),
                          q3=float(np.percentile(values, 75)))
