"""Linear readout: ridge regression with an unpenalized intercept, plus the
scoring metrics used by the benchmark tasks, and the BLAS thread count that
scoring runs at."""

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

SHORT_DELAYS = tuple(range(0, -5, -1))
# the BLAS threads every ridge score runs at: the last bits of a fit depend
# on the count, so a score must not depend on the host's default
SCORING_THREADS = 1


@lru_cache(maxsize=None)
def _openblas():
    """The (set, get) thread-count functions of the OpenBLAS that numpy's
    build config names, in the libraries bundled with numpy; None where
    there is none."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return None
    name = name.replace("-", "_")  # scipy-openblas: scipy_openblas_*64_
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob(f"numpy.libs/lib{name}*"),
                        *package.glob(f".dylibs/lib{name}*")]):
        lib = ctypes.CDLL(str(path))  # the copy numpy has already loaded
        for suffix in ("64_", ""):
            pair = [getattr(lib, f"{name}_{verb}_num_threads{suffix}", None)
                    for verb in ("set", "get")]
            if all(pair):
                return pair
    return None


def blas_thread_count():
    """This process's BLAS thread count, or None where no getter is found."""
    blas = _openblas()
    return None if blas is None else blas[1]()


def set_blas_threads(n):
    """Set this process's BLAS thread count to ``n`` and return the count it
    had; where no setter is found, change nothing and return None."""
    before = blas_thread_count()
    if before is not None:
        _openblas()[0](n)
    return before


@contextmanager
def blas_threads(n):
    """Run the body at ``n`` BLAS threads, then restore the count; where no
    setter is found, run it unpinned."""
    before = set_blas_threads(n)
    try:
        yield
    finally:
        if before is not None:
            set_blas_threads(before)


@dataclass(frozen=True)
class RidgeModel:
    w: np.ndarray
    b: float
    alpha: float


@dataclass(frozen=True)
class Metrics:
    r2: float
    rmse: float


def check_alpha(alpha, reservoir_rows=False):
    """A ridge term: finite and >= 0, or > 0 for ``reservoir_rows``, whose
    entries sum to 1 and so leave the centred design singular."""
    if not (0.0 < alpha < math.inf or alpha == 0 and not reservoir_rows):
        bound = ">" if reservoir_rows else ">="
        raise ValueError(f"alpha must be finite and {bound} 0, got {alpha}")


def ridge_fit(x, y, alpha):
    """Fit ``y ~ x @ w + b`` minimizing ||y - xw - b||^2 + alpha ||w||^2.

    The intercept is handled by centering and carries no penalty.  The
    smaller system is factored, in O(min(n, k)^2 max(n, k)) for n samples
    and k columns: the k x k normal equations when n >= k, else the n x n
    dual (xc xc^T + alpha I) a = yc with w = xc^T a, as for a short
    series on the 256 readout columns of 16 qubits.  A ridge term at most
    eps trace(G), G the centred Gram matrix, is lost in G's rounding and
    counts as none: there n <= k and rows that all share one sum (to within
    sqrt(eps trace(G)), as reservoir rows summing to 1 do: the ones vector
    is then in the centred null space) raise ``numpy.linalg.LinAlgError``,
    as does a failed Cholesky at any alpha; another rank-deficient design
    can pass.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0] or not len(y):
        raise ValueError(
            f"need x (n, k) and y (n,) with n >= 1, got {x.shape} and {y.shape}")
    check_alpha(alpha)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    n, k = x.shape
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    dual = n < k
    gram = xc @ xc.T if dual else xc.T @ xc
    unpenalised = np.finfo(float).eps * np.trace(gram)  # lost in its rounding
    if alpha <= unpenalised and (n <= k or np.linalg.norm(xc.sum(axis=1))
                                 <= math.sqrt(unpenalised)):
        why = (f"{n} samples cannot fix {k} weights and an intercept"
               if n <= k else "rows that all share one sum leave the "
               "centred design singular")
        raise np.linalg.LinAlgError(f"{why} at alpha = {alpha} (at most eps "
                                    "* trace); increase alpha")
    gram[np.diag_indices(min(n, k))] += alpha
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
