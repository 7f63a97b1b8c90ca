"""faircf: fairness-aware collaborative filtering.

Matrix factorization with group-unfairness metrics, penalized training,
block-model synthetic benchmarks, MovieLens-1M preparation, and a
multi-trial experiment harness.  The containers and the training config are
exported here; everything else is imported from its module.
"""

__version__ = "0.4.0"

from .data import GroupAssignment, RatingSet
from .model import ModelParams, TrainConfig

__all__ = ["__version__", "TrainConfig", "ModelParams", "RatingSet", "GroupAssignment"]
