"""faircf: fairness-aware collaborative filtering.

Matrix factorization with group-unfairness metrics, penalized training,
block-model synthetic benchmarks, MovieLens-1M preparation, and a
multi-trial experiment harness.
"""

__version__ = "0.2.0"

from .data import GroupAssignment, RatingSet, read_groups, read_ratings, write_groups, write_ratings
from .fairness import (FairnessReport, GroupItemAverages, METRIC_NAMES, group_item_averages,
                       metric_absolute, metric_nonparity, metric_over, metric_under,
                       metric_value, penalty, penalty_gradient, smoothed_penalty_term)
from .model import (ModelParams, PENALTY_KINDS, TrainConfig, load_params,
                    mf_gradient, mf_objective, predict, predict_entries, predict_matrix,
                    save_params)
from .trainer import DivergenceError, TrainTrace, adam_step, init_params, train
from .synthetic import (BlockModelSpec, SyntheticDataset, builtin_specs, evaluation_set,
                        generate, load_spec, spec_from_json, spec_to_json)
from .ingest import (DEFAULT_GENRES, DEFAULT_MIN_RATINGS, FilteredDataset, GenreStats,
                     MovieLensRaw, filter_dataset, genre_stats, parse, split)
from .experiments import (ExperimentPlan, ExperimentResult, PAPER_PENALTIES, evaluate,
                          paired_t_statistic, paired_t_test, render, render_settings,
                          run_bias_settings_study, run_experiment)
from .seeding import derive_seed

__all__ = [
    "__version__",
    "RatingSet", "GroupAssignment", "read_ratings", "write_ratings", "read_groups",
    "write_groups",
    "ModelParams", "TrainConfig", "PENALTY_KINDS", "predict", "predict_entries",
    "predict_matrix", "mf_objective", "mf_gradient", "save_params", "load_params",
    "METRIC_NAMES", "GroupItemAverages", "FairnessReport", "group_item_averages",
    "metric_value", "metric_absolute", "metric_under", "metric_over", "metric_nonparity",
    "smoothed_penalty_term", "penalty", "penalty_gradient",
    "TrainTrace", "DivergenceError", "adam_step", "init_params", "train",
    "BlockModelSpec", "SyntheticDataset", "builtin_specs", "generate", "evaluation_set",
    "spec_to_json", "spec_from_json", "load_spec",
    "MovieLensRaw", "FilteredDataset", "GenreStats", "DEFAULT_GENRES", "DEFAULT_MIN_RATINGS",
    "parse", "filter_dataset", "genre_stats", "split",
    "ExperimentPlan", "ExperimentResult", "PAPER_PENALTIES", "evaluate", "paired_t_test",
    "paired_t_statistic", "run_experiment", "run_bias_settings_study", "render",
    "render_settings", "derive_seed",
]
