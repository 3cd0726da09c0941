"""Linear readout: ridge regression with an unpenalized intercept, plus the
scoring metrics used by the benchmark tasks."""

import math
from dataclasses import dataclass

import numpy as np

SHORT_DELAYS = tuple(range(0, -5, -1))


@dataclass(frozen=True)
class RidgeModel:
    w: np.ndarray
    b: float
    alpha: float


@dataclass(frozen=True)
class Metrics:
    r2: float
    rmse: float


def ridge_fit(x, y, alpha):
    """Fit ``y ~ x @ w + b`` minimizing ||y - xw - b||^2 + alpha ||w||^2.

    The intercept is handled by centering and carries no penalty.  The
    smaller system is factored, in O(min(n, k)^2 max(n, k)) for n samples
    and k columns: the k x k normal equations when n >= k, else the n x n
    dual (xc xc^T + alpha I) a = yc with w = xc^T a, as for a short
    series on the 256 readout columns of 16 qubits.  With ``alpha == 0`` a
    rank-deficient design, such as any with n <= k once centred, raises
    ``numpy.linalg.LinAlgError`` rather than silently returning one of many
    minimizers.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0] or not len(y):
        raise ValueError(
            f"need x (n, k) and y (n,) with n >= 1, got {x.shape} and {y.shape}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    n, k = x.shape
    if alpha == 0 and n <= k:
        raise np.linalg.LinAlgError(
            f"{n} samples cannot fix {k} weights and an intercept at "
            f"alpha = 0; increase alpha")
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    dual = n < k
    gram = (xc @ xc.T if dual else xc.T @ xc) + alpha * np.eye(min(n, k))
    try:
        chol = np.linalg.cholesky(gram)  # raises unless positive definite
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "normal equations are singular or ill-conditioned; "
            "increase alpha") from exc
    yc = y - y_mean
    coef = np.linalg.solve(chol.T, np.linalg.solve(chol, yc if dual else xc.T @ yc))
    w = xc.T @ coef if dual else coef
    return RidgeModel(w=w, b=float(y_mean - x_mean @ w), alpha=float(alpha))


def predict(model, x):
    return np.asarray(x, dtype=float) @ model.w + model.b


def r_squared(pred, target):
    """Squared Pearson correlation, at most 1 (the quotient can round past
    it); nan when either side has zero variance."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    pc = pred - pred.mean()
    tc = target - target.mean()
    vp = pc @ pc
    vt = tc @ tc
    if vp == 0.0 or vt == 0.0:
        return float("nan")
    cov = pc @ tc
    return float(min(cov * cov / (vp * vt), 1.0))


def rmse(pred, target):
    diff = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    return float(np.sqrt(np.mean(diff * diff)))


def mean_rmse_short(per_delay):
    """Mean RMSE over the five shortest delays 0, -1, ..., -4."""
    missing = [d for d in SHORT_DELAYS if d not in per_delay]
    if missing:
        raise ValueError(f"missing delays {missing}")
    return float(np.mean([per_delay[d].rmse for d in SHORT_DELAYS]))
