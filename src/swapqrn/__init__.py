"""Recurrent quantum reservoir networks with a tunable partial-SWAP readout coupling."""

__version__ = "0.1.0"

from .gates import partial_swap_unitary, swap_coefficients
from .channel import (
    damping_channel, outcome_distribution, purity, trajectory_step,
    ground_state,
)
from .embedding import (
    EmbeddingWeights, init_weights, context_window, compute_angles,
    ring_edges, embedding_unitary,
)
from .reservoir import (
    ReservoirConfig, step, run_exact, run_sampled, run_trajectories,
    run_features, bitstring_labels, features_to_csv, features_from_csv,
)
from .readout import (
    RidgeModel, Metrics, ridge_fit, predict, r_squared, rmse, mean_rmse_short,
)
from .tasks import (
    StmcSpec, NarmaSpec, EsnConfig, StmcResult, NarmaResult, EsnNarmaResult,
    gen_uniform, narma5, stmc_align, run_stmc, score_stmc_features,
    run_narma, score_narma_features, esn_init, esn_states, esn_run,
    run_esn_narma,
)

__all__ = [
    "__version__",
    "partial_swap_unitary", "swap_coefficients",
    "damping_channel", "outcome_distribution", "purity", "trajectory_step",
    "ground_state",
    "EmbeddingWeights", "init_weights", "context_window", "compute_angles",
    "ring_edges", "embedding_unitary",
    "ReservoirConfig", "step", "run_exact", "run_sampled", "run_trajectories",
    "run_features", "bitstring_labels", "features_to_csv", "features_from_csv",
    "RidgeModel", "Metrics", "ridge_fit", "predict", "r_squared", "rmse",
    "mean_rmse_short",
    "StmcSpec", "NarmaSpec", "EsnConfig", "StmcResult", "NarmaResult",
    "EsnNarmaResult", "gen_uniform", "narma5", "stmc_align", "run_stmc",
    "score_stmc_features", "run_narma", "score_narma_features", "esn_init",
    "esn_states", "esn_run", "run_esn_narma",
]
