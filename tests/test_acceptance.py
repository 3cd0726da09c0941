"""Acceptance checklist.

One test per criterion, each printing a single ``ACCEPTANCE nn name: PASS/FAIL``
line (run with ``-s`` to see the lines as they happen).  Heavy sweeps are
shared through module-scoped fixtures; per-criterion runtime budgets are
asserted where stated.

Four checks are EXPECTED RED with this code base and its fixed seeds; each
is asserted exactly as stated rather than silently widened, and each test's
docstring carries the analysis:

* 3b  purity after 20 coupling rounds is 1 - 2^-19 + 2^-39 ~ 1 - 1.907e-6,
      short of the 1 - 1e-6 threshold (first met at round 21).
* 8b  best NARMA-5 RMSE 0.0459 exceeds half the random-guess floor
      (0.04505); the companion absolute bound of 0.07 passes with ~35%
      margin, so only the half-floor clause is out of reach.
* 9   the gamma=1.0 endpoint sits only ~6% above the interior minimum
      (needs 15%): with context length 5 the embedding window already
      covers every input lag NARMA-5 uses, so the memoryless full-SWAP
      limit stays competitive.
* 12  the single-seed QRN beats the 200-seed ESN median at register
      sizes 5-8 but at none of 1-4 (4 of 8; needs 5), under every
      configuration choice tried (full gamma grid, n_repeats 1 and 3).
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from swapqrn.gates import partial_swap_unitary
from swapqrn.channel import (
    ground_state, damping_channel, outcome_distribution, purity,
)
from swapqrn.embedding import init_weights, context_window, compute_angles, embedding_unitary
from swapqrn.reservoir import ReservoirConfig, step, run_exact, run_trajectories
from swapqrn.readout import ridge_fit, set_blas_threads
from swapqrn.tasks import (
    StmcSpec, NarmaSpec, EsnConfig, gen_uniform, narma5, run_stmc, run_narma,
    run_esn_narma,
)

import oracles

pytestmark = pytest.mark.acceptance

GAMMA_GRID = tuple(round(0.05 * k, 10) for k in range(1, 21))
FLOOR_U01 = float(np.sqrt(1.0 / 12.0))
REFERENCE = os.path.join(os.path.dirname(__file__),
                         "paper_scale_reference.json")
METRIC_RTOL = 1e-9  # perfbench's bound on task metrics, relative


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pool():
    """One process per CPU, each at one BLAS thread as the CLI's workers
    are, shared by the sweeps; a point's metrics do not depend on where it
    runs."""
    with ProcessPoolExecutor(os.cpu_count(), initializer=set_blas_threads,
                             initargs=(1,)) as executor:
        yield executor


def _stmc_point(n_qubits, n_repeats, gamma):
    rc = ReservoirConfig(n_qubits=n_qubits, gamma=gamma, n_repeats=n_repeats,
                         c=1)
    return run_stmc(StmcSpec(), rc).mean_rmse_short


def _narma_point(n_qubits, n_repeats, gamma):
    rc = ReservoirConfig(n_qubits=n_qubits, gamma=gamma, n_repeats=n_repeats,
                         c=5)
    result = run_narma(NarmaSpec(), rc)
    return result.metrics.rmse, result.target_std


@pytest.fixture(scope="module")
def stmc_sweeps(pool):
    """mean_rmse_short curves over the 20-value gamma grid; a curve's
    elapsed time is its wall time on the pool."""
    out = {"elapsed": {}}
    for n_qubits, n_repeats in ((16, 1), (16, 3), (4, 1)):
        start = time.perf_counter()
        values = pool.map(partial(_stmc_point, n_qubits, n_repeats), GAMMA_GRID)
        out[(n_qubits, n_repeats)] = dict(zip(GAMMA_GRID, values))
        out["elapsed"][(n_qubits, n_repeats)] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def narma_sweeps(pool):
    """Test RMSE curves at n_qubits=12 over the gamma grid, r in {1, 3}."""
    out = {"elapsed": {}}
    for n_repeats in (3, 1):
        start = time.perf_counter()
        results = list(pool.map(partial(_narma_point, 12, n_repeats), GAMMA_GRID))
        out[n_repeats] = {g: rmse for g, (rmse, _) in zip(GAMMA_GRID, results)}
        out["target_std"] = results[-1][1]
        out["elapsed"][n_repeats] = time.perf_counter() - start
    return out


# gamma evaluation order for the matched-size comparison: the full grid,
# visited best-region-first so winning sizes resolve after a few runs
# (min over a prefix can only overestimate the full-grid min, so a win
# observed early is a win under the full grid).
GAMMA_BY_PROMISE = (0.75, 0.85, 0.65, 0.9, 0.7, 0.8, 0.95, 0.6, 1.0, 0.55,
                    0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05)


def _esn_size(n_mem, known=None):
    """The 200-seed ESN of ``n_mem`` nodes, and the best QRN RMSE of
    ``2 n_mem`` qubits over the gamma grid, or ``known`` where given; the
    gamma loop stops at the first win."""
    spec = NarmaSpec()
    esn = run_esn_narma(spec, EsnConfig(n_nodes=n_mem), 200)
    if known is not None:
        return esn, known
    best = np.inf
    for gamma in GAMMA_BY_PROMISE:
        rc = ReservoirConfig(n_qubits=2 * n_mem, gamma=gamma, n_repeats=3, c=5)
        best = min(best, run_narma(spec, rc).metrics.rmse)
        if best <= esn.median:
            break
    return esn, best


@pytest.fixture(scope="module")
def esn_comparison(narma_sweeps, pool):
    """ESN medians (200 seeds) and matched-size QRN bests over the gamma
    grid, one size per pool task, the largest first; 12 qubits reuse the
    NARMA sweep."""
    start = time.perf_counter()
    spec = NarmaSpec()
    sizes = range(8, 0, -1)
    known = {6: min(narma_sweeps[3].values())}
    results = dict(zip(sizes, pool.map(_esn_size, sizes, map(known.get, sizes))))
    esn = {n: results[n][0] for n in range(1, 9)}
    qrn = {n: results[n][1] for n in range(1, 9)}
    _, y = narma5(gen_uniform(spec.seed, spec.n_total, 0.0, 0.5))
    floor = float(np.std(y[spec.n_train:spec.n_train + spec.n_test]))
    return {"esn": esn, "qrn": qrn, "floor": floor,
            "elapsed": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_amplitude_damping_identity():
    """Channel output equals the analytic single-qubit form on random states."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for gamma in GAMMA_GRID:
        p = np.sin(np.pi * gamma / 2.0) ** 2
        damp = np.exp(-1j * np.pi * gamma / 2.0) * np.sqrt(1.0 - p)
        for _ in range(100):
            rho = oracles.random_density(rng, 2)
            expected = np.array(
                [[rho[0, 0] + p * rho[1, 1], damp * rho[0, 1]],
                 [np.conj(damp) * rho[1, 0], (1.0 - p) * rho[1, 1]]])
            err = np.max(np.abs(damping_channel(rho, gamma) - expected))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(1, "amplitude-damping-identity",
            worst <= 1e-12 and elapsed < 1.0,
            f"max_err={worst:.2e} (tol 1e-12), runtime={elapsed:.2f}s (<1s)")


def test_02_joint_register_equivalence():
    """Reduced recursion matches brute-force joint-register evolution."""
    start = time.perf_counter()
    worst_row = worst_state = 0.0
    for seed in (1, 2, 3):
        for n_qubits in (2, 4, 6):
            n_mem = n_qubits // 2
            cfg = ReservoirConfig(n_qubits=n_qubits, gamma=0.45, c=2,
                                  n_repeats=2)
            weights = init_weights(seed, c=2, n_mem=n_mem)
            u = np.random.default_rng(seed).random(10)
            rho_pkg = ground_state(n_mem)
            rho_ref = ground_state(n_mem)
            for t in range(10):
                x = context_window(u, t, 2)
                rho_pkg, row_pkg = step(rho_pkg, x, weights, cfg)
                emb = embedding_unitary(compute_angles(x, weights),
                                        weights.w_hidden, 2)
                rho_ref = emb @ rho_ref @ emb.conj().T
                row_ref, rho_ref = oracles.joint_measure_and_reset(rho_ref, 0.45)
                worst_row = max(worst_row, np.max(np.abs(row_pkg - row_ref)))
                worst_state = max(worst_state,
                                  np.max(np.abs(rho_pkg - rho_ref)))
    elapsed = time.perf_counter() - start
    worst = max(worst_row, worst_state)
    _report(2, "joint-register-equivalence",
            worst <= 1e-10 and elapsed < 10.0,
            f"max_row_err={worst_row:.2e}, max_state_err={worst_state:.2e} "
            f"(tol 1e-10), runtime={elapsed:.1f}s (<10s)")


def test_03a_population_decay_exact():
    """rho11 halves per coupling round: 2^-n after n rounds, p = 1/2."""
    rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    worst = 0.0
    for n in range(1, 41):
        rho = damping_channel(rho, 0.5)
        rel = abs(rho[1, 1].real - 0.5 ** n) / 0.5 ** n
        worst = max(worst, rel)
    _report("3a", "population-decay-exact", worst <= 1e-14,
            f"max_rel_err={worst:.2e} over n=1..40 (tol 1e-14)")


def test_03b_purity_threshold_at_20():
    """Purity >= 1 - 1e-6 by n = 20 -- EXPECTED RED, kept as stated.

    purity(n) = (1 - 2^-n)^2 + (2^-n)^2 = 1 - 2^(1-n) + 2^(1-2n);
    purity(20) = 1 - 1.9073e-6 < 1 - 1e-6.  The bound first holds at n = 21.
    The assertion is deliberately not weakened.
    """
    rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    for _ in range(20):
        rho = damping_channel(rho, 0.5)
    value = purity(rho)
    _report("3b", "purity-threshold-n20", value >= 1.0 - 1e-6,
            f"purity(20)={value:.12f} vs 1-1e-6={1 - 1e-6:.12f}; "
            f"analytic 1-2^-19+2^-39; bound first holds at n=21")


def test_04_full_swap_limit():
    """SWAP^1 is the canonical SWAP matrix."""
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                     [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    err = np.max(np.abs(partial_swap_unitary(1.0) - swap))
    _report(4, "full-swap-limit", err <= 1e-15, f"max_err={err:.2e} (tol 1e-15)")


def test_05_trajectory_marginal_equivalence():
    """5e4 pure-state trajectories reproduce exact rows to TV <= 0.02."""
    start = time.perf_counter()
    weights = init_weights(42, c=1, n_mem=2)
    u = gen_uniform(5, 20)
    exact = run_exact(u, weights, ReservoirConfig(n_qubits=4, gamma=0.55))
    cfg = ReservoirConfig(n_qubits=4, gamma=0.55, backend="trajectory",
                          n_shots=50_000)
    freq = run_trajectories(u, weights, cfg, np.random.default_rng(2718))
    tv = 0.5 * np.abs(freq - exact).sum(axis=1)
    elapsed = time.perf_counter() - start
    _report(5, "trajectory-marginal-equivalence",
            tv.max() <= 0.02 and elapsed < 60.0,
            f"max_TV={tv.max():.4f} (tol 0.02), runtime={elapsed:.1f}s (<60s)")


def test_06_stmc_interior_optimum(stmc_sweeps):
    """Memory optimum strictly inside the gamma range, below the noise floor."""
    curve = stmc_sweeps[(16, 1)]
    values = [curve[g] for g in GAMMA_GRID]
    best_idx = int(np.argmin(values))
    best_gamma, best = GAMMA_GRID[best_idx], values[best_idx]
    lo, hi = values[0], values[-1]
    elapsed = stmc_sweeps["elapsed"][(16, 1)]
    ok = (0 < best_idx < len(GAMMA_GRID) - 1
          and lo >= 1.10 * best and hi >= 1.10 * best
          and best < 0.2887 and elapsed < 600.0)
    _report(6, "stmc-interior-optimum", ok,
            f"min={best:.4f} at gamma={best_gamma} (floor 0.2887), "
            f"endpoints +{100 * (lo / best - 1):.0f}%/+{100 * (hi / best - 1):.0f}% "
            f"(need >=10%), runtime={elapsed:.0f}s (<600s)")


def test_07_stmc_qubit_scaling(stmc_sweeps):
    """Wider register never hurts near the optimum: 16 qubits <= 4 qubits."""
    wide, narrow = stmc_sweeps[(16, 1)], stmc_sweeps[(4, 1)]
    values = [wide[g] for g in GAMMA_GRID]
    best_gamma = GAMMA_GRID[int(np.argmin(values))]
    near = [g for g in GAMMA_GRID if abs(g - best_gamma) <= 0.05 + 1e-12]
    gaps = {g: narrow[g] - wide[g] for g in near}
    ok = all(wide[g] <= narrow[g] for g in near)
    _report(7, "stmc-qubit-scaling", ok,
            f"gamma near optimum {near}: rmse(n=4)-rmse(n=16) = "
            + ", ".join(f"{gaps[g]:+.4f}" for g in near) + " (all must be >=0)")


def test_08a_narma_headline_rmse(narma_sweeps):
    """Best-gamma NARMA-5 RMSE at the headline configuration <= 0.07."""
    curve = narma_sweeps[3]
    best_gamma = min(curve, key=curve.get)
    best = curve[best_gamma]
    elapsed = narma_sweeps["elapsed"][3]
    ok = best <= 0.07 and elapsed < 300.0
    _report("8a", "narma-headline-rmse", ok,
            f"min_rmse={best:.4f} at gamma={best_gamma} (tol 0.07), "
            f"runtime={elapsed:.0f}s (<300s)")


def test_08b_narma_headline_vs_floor(narma_sweeps):
    """Best RMSE <= 0.5 x sqrt(Var(test targets)).

    EXPECTED RED: the random-guess floor here is ~0.0901, so this demands
    RMSE <= ~0.0450 -- noticeably tighter than the companion absolute
    bound of 0.07.  The achieved best is 0.0459, about 2% over the line.
    Asserted as stated.
    """
    curve = narma_sweeps[3]
    best = min(curve.values())
    floor = narma_sweeps["target_std"]
    _report("8b", "narma-headline-vs-floor", best <= 0.5 * floor,
            f"min_rmse={best:.4f} vs 0.5*floor={0.5 * floor:.4f} "
            f"(floor={floor:.4f})")


def test_09_narma_interior_optimum(narma_sweeps):
    """Both gamma endpoints sit >= 15% above the interior minimum.

    EXPECTED RED at the gamma=1.0 endpoint (~+6%, needs +15%): the context
    window of length 5 spans every input lag the NARMA-5 recursion uses
    (z_t through z_{t-4}), so even the memoryless full-SWAP limit fits the
    input-driven part of the target well.  The gamma=0.05 endpoint clears
    the margin at roughly +96%.  Asserted as stated.
    """
    curve = narma_sweeps[3]
    interior = {g: v for g, v in curve.items()
                if g not in (GAMMA_GRID[0], GAMMA_GRID[-1])}
    best_gamma = min(interior, key=interior.get)
    best = interior[best_gamma]
    lo, hi = curve[GAMMA_GRID[0]], curve[GAMMA_GRID[-1]]
    ok = lo >= 1.15 * best and hi >= 1.15 * best
    _report(9, "narma-interior-optimum", ok,
            f"interior min={best:.4f} at gamma={best_gamma}, endpoints "
            f"+{100 * (lo / best - 1):.0f}%/+{100 * (hi / best - 1):.0f}% (need >=15%)")


def test_10_reuploading_effect(stmc_sweeps, narma_sweeps):
    """STMC generally prefers r=1; NARMA-5 generally prefers r=3.

    Neither statement names a gamma, and both cite sweep-wide findings, so
    each is scored across the shared gamma grid: the favored repeat count
    must win (<=) at a strict majority of the 20 grid points.  Best-over-
    gamma values are reported alongside for reference.
    """
    stmc_wins = sum(stmc_sweeps[(16, 1)][g] <= stmc_sweeps[(16, 3)][g]
                    for g in GAMMA_GRID)
    narma_wins = sum(narma_sweeps[3][g] <= narma_sweeps[1][g]
                     for g in GAMMA_GRID)
    ok = stmc_wins > 10 and narma_wins > 10
    _report(10, "reuploading-effect", ok,
            f"stmc r1<=r3 at {stmc_wins}/20 gammas, narma r3<=r1 at "
            f"{narma_wins}/20 gammas (each needs >=11); best-over-gamma "
            f"stmc r1={min(stmc_sweeps[(16, 1)].values()):.4f} "
            f"r3={min(stmc_sweeps[(16, 3)].values()):.4f}, "
            f"narma r3={min(narma_sweeps[3].values()):.4f} "
            f"r1={min(narma_sweeps[1].values()):.4f}")


def test_11_ridge_oracle():
    """Fits match augmented normal equations; gradient vanishes at the fit."""
    rng = np.random.default_rng(11)
    worst_w = worst_grad = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 50))
        k = int(rng.integers(1, 8))
        x = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        alpha = float(10.0 ** rng.uniform(-6, 1))
        model = ridge_fit(x, y, alpha)
        w_ref, b_ref = oracles.ridge_oracle(x, y, alpha)
        worst_w = max(worst_w, np.max(np.abs(model.w - w_ref)),
                      abs(model.b - b_ref))
        residual = y - x @ model.w - model.b
        grad_w = -2.0 * x.T @ residual + 2.0 * alpha * model.w
        grad_b = -2.0 * residual.sum()
        worst_grad = max(worst_grad, np.max(np.abs(grad_w)), abs(grad_b))
    ok = worst_w <= 1e-8 and worst_grad <= 1e-8
    _report(11, "ridge-oracle", ok,
            f"max_coef_err={worst_w:.2e} (tol 1e-8), "
            f"max_gradient={worst_grad:.2e} (tol 1e-8)")


def test_12_esn_baseline(esn_comparison):
    """ESN medians improve with size and QRN wins at >= 5 of 8 sizes.

    EXPECTED RED on the win tally: with this RNG stream the single-seed
    QRN beats the 200-seed ESN median at register sizes 5-8 but at none
    of 1-4 (closest miss: size 3, QRN 0.0627 vs median 0.0618), and the
    picture is unchanged at n_repeats=1, so the tally is 4 of 8 under
    every configuration tried.  The median-monotonicity and noise-floor
    clauses hold.  Asserted as stated.
    """
    esn, qrn = esn_comparison["esn"], esn_comparison["qrn"]
    floor = esn_comparison["floor"]
    medians = [esn[n].median for n in range(1, 9)]
    monotone = all(b <= a for a, b in zip(medians, medians[1:]))
    below_floor = all(esn[n].median < floor for n in range(4, 9))
    wins = sum(qrn[n] <= esn[n].median for n in range(1, 9))
    elapsed = esn_comparison["elapsed"]
    ok = monotone and below_floor and wins >= 5 and elapsed < 300.0
    _report(12, "esn-baseline", ok,
            f"medians={['%.4f' % m for m in medians]}, monotone={monotone}, "
            f"below_floor(N>=4)={below_floor}, qrn_wins={wins}/8 (need >=5), "
            f"runtime={elapsed:.0f}s (<300s)")


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    else:
        yield "/".join(path), node


def test_paper_scale_reference(stmc_sweeps, narma_sweeps, esn_comparison):
    """The fixtures' 134 paper-scale numbers equal the committed reference
    to ``METRIC_RTOL``: each STMC mean_rmse_short and NARMA RMSE over the
    gamma grid, the NARMA target std, the ESN median, q1 and q3 and the QRN
    best per size, and the floor.  Per-delay r^2 is left out: near 0 it
    moves relatively more than 1e-9 under rounding alone."""
    with open(REFERENCE) as handle:
        want = dict(_leaves(json.load(handle)))
    want.pop("about")
    got = dict(_leaves({
        "stmc_mean_rmse_short": {
            f"{n},{r}": {repr(g): stmc_sweeps[(n, r)][g] for g in GAMMA_GRID}
            for n, r in ((16, 1), (16, 3), (4, 1))},
        "narma_rmse": {str(r): {repr(g): narma_sweeps[r][g]
                                for g in GAMMA_GRID} for r in (3, 1)},
        "narma_target_std": narma_sweeps["target_std"],
        "esn": {str(n): {"median": e.median, "q1": e.q1, "q3": e.q3}
                for n, e in esn_comparison["esn"].items()},
        "qrn_best": {str(n): v for n, v in esn_comparison["qrn"].items()},
        "floor": esn_comparison["floor"]}))
    assert got.keys() == want.keys()
    moved = {k: (got[k], want[k]) for k in want
             if not abs(got[k] - want[k])
             <= METRIC_RTOL * max(abs(got[k]), abs(want[k]))}
    assert not moved, f"{len(moved)} of {len(want)} values moved: {moved}"


def test_13_hardware_out_of_scope():
    """Hardware RMSE reproduction requires a QPU; criteria 1-12 substitute."""
    print("ACCEPTANCE 13 hardware-run: SKIP -- requires quantum hardware; "
          "simulator-only artifact, criteria 1-12 stand in")
    pytest.skip("hardware reproduction requires a QPU; out of scope here")
