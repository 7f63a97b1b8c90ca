"""Block-model synthetic ratings with controllable population imbalance and
observation bias.

Users belong to one of four blocks (W, WS, MS, M) and items to one of three
(Fem, STEM, Masc).  A user likes an item (+1, otherwise -1) with the
probability given by the block cell of ``like_probs``, and the rating is
actually observed with the probability in ``obs_probs``.  The recommender
only ever sees the binary label derived from the user block (W and WS are
the disadvantaged group); the four-way block stays hidden.

Four builtin settings cover the 2x2 of {uniform, imbalanced} population x
{uniform, biased} observation:

    U    uniform population, uniform observation
    O    uniform population, biased observation
    P    imbalanced population (0.4 W, 0.1 WS, 0.4 MS, 0.1 M), uniform obs
    P+O  imbalanced population, biased observation

Group sizes are exact quotas (largest-remainder rounding) shuffled by the
seed, not independent draws.  Rating draws, observation draws, and the two
shuffles use separate substreams of the seed, so switching the observation
matrix never changes which ratings would have been liked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .data import (Container, FloatArray, GroupAssignment, IntArray, RatingSet,
                   check_field_types, read_json_object)

USER_GROUPS = ("W", "WS", "MS", "M")
ITEM_GROUPS = ("Fem", "STEM", "Masc")
DISADVANTAGED_USER_GROUPS = ("W", "WS")

# Probability that a user of each row block likes an item of each column block.
LIKE_PROBS = np.array([
    [0.8, 0.2, 0.2],   # W
    [0.8, 0.8, 0.2],   # WS
    [0.2, 0.8, 0.8],   # MS
    [0.2, 0.2, 0.8],   # M
])

OBS_UNIFORM = np.full((4, 3), 0.4)

# Biased observation: each block over-samples stereotype-consistent items.
OBS_BIASED = np.array([
    [0.60, 0.20, 0.10],   # W
    [0.30, 0.40, 0.20],   # WS
    [0.10, 0.30, 0.50],   # MS
    [0.05, 0.50, 0.35],   # M
])

POP_UNIFORM = np.full(4, 0.25)
POP_IMBALANCED = np.array([0.4, 0.1, 0.4, 0.1])


@dataclass(frozen=True, eq=False)
class BlockModelSpec(Container):
    """Complete description of one synthetic data distribution; immutable
    (the arrays are read-only copies), and checked once, when built."""

    user_group_labels: tuple = USER_GROUPS
    user_group_proportions: FloatArray = field(default_factory=lambda: POP_UNIFORM)
    item_group_labels: tuple = ITEM_GROUPS
    item_group_proportions: FloatArray = field(default_factory=lambda: np.full(3, 1.0 / 3.0))
    like_probs: FloatArray = field(default_factory=lambda: LIKE_PROBS)
    obs_probs: FloatArray = field(default_factory=lambda: OBS_UNIFORM)
    num_users: int = 400
    num_items: int = 300
    seed: int = 0
    disadvantaged_user_groups: tuple = DISADVANTAGED_USER_GROUPS

    def __post_init__(self):
        check_field_types(self)
        n_ug, n_ig = len(self.user_group_labels), len(self.item_group_labels)
        if self.num_users <= 0 or self.num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name, props, count in (("user", self.user_group_proportions, n_ug),
                                   ("item", self.item_group_proportions, n_ig)):
            if props.shape != (count,):
                raise ValueError(f"{name} group proportions must match the labels")
            if not (np.all(props >= 0) and abs(props.sum() - 1.0) <= 1e-9):
                raise ValueError(f"{name} group proportions must be nonnegative and sum to 1")
        for name, probs in (("like_probs", self.like_probs), ("obs_probs", self.obs_probs)):
            if probs.shape != (n_ug, n_ig):
                raise ValueError(f"{name} must be shaped (user groups, item groups)")
            if not np.all((probs >= 0) & (probs <= 1)):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        unknown = set(self.disadvantaged_user_groups) - set(self.user_group_labels)
        if unknown:
            raise ValueError(f"disadvantaged groups {sorted(unknown)} not among the user labels")


@dataclass(frozen=True, eq=False)
class SyntheticDataset(Container):
    """Generated data, immutable: the observed ratings, the binary labels the
    model may see and the hidden user and item blocks (read-only indices into
    the spec's labels), from which ``evaluation_set`` reads a cell's expected score."""

    observed: RatingSet
    groups: GroupAssignment
    user_group: IntArray
    item_group: IntArray
    spec: BlockModelSpec

    def __post_init__(self):
        check_field_types(self, RatingSet=RatingSet, GroupAssignment=GroupAssignment,
                          BlockModelSpec=BlockModelSpec)


def builtin_specs(num_users: int = BlockModelSpec.num_users,
                  num_items: int = BlockModelSpec.num_items, seed: int = 0) -> dict:
    """The four standard settings, keyed U, O, P, P+O."""
    def make(pop, obs):
        return BlockModelSpec(user_group_proportions=pop, obs_probs=obs,
                              num_users=num_users, num_items=num_items, seed=seed)
    return {
        "U": make(POP_UNIFORM, OBS_UNIFORM),
        "O": make(POP_UNIFORM, OBS_BIASED),
        "P": make(POP_IMBALANCED, OBS_UNIFORM),
        "P+O": make(POP_IMBALANCED, OBS_BIASED),
    }


def _quota_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer group sizes summing to ``total`` via largest-remainder
    rounding (ties go to the lower group index)."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _assign_groups(proportions: np.ndarray, total: int, rng: np.random.Generator) -> np.ndarray:
    counts = _quota_counts(proportions, total)
    labels = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(labels)
    return labels


def generate(spec: BlockModelSpec) -> SyntheticDataset:
    """Draw one dataset from the block model: a cell is liked (observed) when
    its like (observation) draw lies below the probability of its block
    cell, compared one user block at a time against that block's row of
    probabilities spread over the item blocks."""
    m, n = spec.num_users, spec.num_items
    # Independent substreams: user assignment, item assignment, likes, observation.
    streams = np.random.SeedSequence(spec.seed).spawn(4)
    user_group = _assign_groups(spec.user_group_proportions, m, np.random.default_rng(streams[0]))
    item_group = _assign_groups(spec.item_group_proportions, n, np.random.default_rng(streams[1]))

    like_draw = np.random.default_rng(streams[2]).random((m, n))
    obs_draw = np.random.default_rng(streams[3]).random((m, n))
    likes = np.empty((m, n), dtype=bool)
    observed_mask = np.empty((m, n), dtype=bool)
    for g in range(len(spec.user_group_labels)):
        block = user_group == g
        likes[block] = like_draw[block] < spec.like_probs[g][item_group]
        observed_mask[block] = obs_draw[block] < spec.obs_probs[g][item_group]
    del like_draw, obs_draw                 # freed before the set below copies its arrays

    rows, cols = np.nonzero(observed_mask)
    values = np.where(likes[rows, cols], 1.0, -1.0)
    observed = RatingSet(rows, cols, values, m, n)

    disadvantaged = np.isin(np.asarray(spec.user_group_labels)[user_group],
                            spec.disadvantaged_user_groups)
    return SyntheticDataset(observed, GroupAssignment(disadvantaged), user_group, item_group, spec)


def evaluation_set(data: SyntheticDataset) -> RatingSet:
    """Held-out targets: every unobserved grid cell paired with its expected
    score, 2 * like_prob - 1 of its block cell.  Empty when all was observed."""
    m, n = data.spec.num_users, data.spec.num_items
    mask = np.ones((m, n), dtype=bool)
    mask[data.observed.users, data.observed.items] = False
    rows, cols = np.nonzero(mask)
    expected = 2.0 * data.spec.like_probs[data.user_group[rows], data.item_group[cols]] - 1.0
    return RatingSet(rows, cols, expected, m, n)


def spec_to_json(spec: BlockModelSpec) -> str:
    """Serialize a spec so custom distributions can ride through the CLI."""
    payload = {f.name: getattr(spec, f.name) for f in fields(BlockModelSpec)}
    return json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)


# Fields a spec file may leave out; every other field is required.
_OPTIONAL_FIELDS = {"seed", "disadvantaged_user_groups"}


def load_spec(path) -> BlockModelSpec:
    """Read a spec file written by spec_to_json; any fault in it, a missing
    or unknown field too, raises ``<path>: <reason>``."""
    payload = read_json_object(path, "a block-model spec")
    names = {f.name for f in fields(BlockModelSpec)}
    faults = [f"unknown field {name!r}" for name in sorted(payload.keys() - names)]
    faults += [f"missing field {name!r}" for name in sorted(names - _OPTIONAL_FIELDS - payload.keys())]
    if faults:
        raise ValueError(f"{path}: {faults[0]}")
    try:
        return BlockModelSpec(**payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
