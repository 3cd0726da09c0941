"""Linear readout: ridge regression with an unpenalized intercept, plus the
scoring metrics used by the benchmark tasks."""

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

    The intercept is handled by centering and carries no penalty.  With
    ``alpha == 0`` a rank-deficient design raises ``numpy.linalg.LinAlgError``
    rather than silently returning one of many minimizers.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError(
            f"need x (n, k) and y (n,), got {x.shape} and {y.shape}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    gram = xc.T @ xc + alpha * np.eye(x.shape[1])
    try:
        chol = np.linalg.cholesky(gram)  # raises unless positive definite
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "normal equations are singular or ill-conditioned; "
            "increase alpha") from exc
    w = np.linalg.solve(chol.T, np.linalg.solve(chol, xc.T @ (y - y_mean)))
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
