"""Recurrent quantum reservoir networks with a tunable partial-SWAP readout coupling."""

__version__ = "0.1.0"

from .gates import partial_swap_unitary, swap_coefficients
from .channel import (
    KrausPair, kraus_pair, damping_channel, outcome_distribution, purity,
    trajectory_step, ground_state, ground_state_vector,
)
from .embedding import (
    EmbeddingWeights, init_weights, context_window, compute_angles,
    ring_edges, embedding_unitary,
)
from .reservoir import (
    ReservoirConfig, step, run_exact, run_sampled, run_trajectories,
    run_features, bitstring_labels, features_to_csv, features_from_csv,
    features_to_json, features_from_json,
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
    "KrausPair", "kraus_pair", "damping_channel", "outcome_distribution", "purity",
    "trajectory_step", "ground_state", "ground_state_vector",
    "EmbeddingWeights", "init_weights", "context_window", "compute_angles",
    "ring_edges", "embedding_unitary",
    "ReservoirConfig", "step", "run_exact", "run_sampled", "run_trajectories",
    "run_features", "bitstring_labels", "features_to_csv", "features_from_csv",
    "features_to_json", "features_from_json",
    "RidgeModel", "Metrics", "ridge_fit", "predict", "r_squared", "rmse",
    "mean_rmse_short",
    "StmcSpec", "NarmaSpec", "EsnConfig", "StmcResult", "NarmaResult",
    "EsnNarmaResult", "gen_uniform", "narma5", "stmc_align", "run_stmc",
    "score_stmc_features", "run_narma", "score_narma_features", "esn_init",
    "esn_states", "esn_run", "run_esn_narma",
]
