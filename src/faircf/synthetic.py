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
from pathlib import Path

import numpy as np

from .data import GroupAssignment, RatingSet

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


@dataclass(eq=False)
class BlockModelSpec:
    """Complete description of one synthetic data distribution."""

    user_group_labels: tuple = USER_GROUPS
    user_group_proportions: np.ndarray = field(default_factory=lambda: POP_UNIFORM.copy())
    item_group_labels: tuple = ITEM_GROUPS
    item_group_proportions: np.ndarray = field(default_factory=lambda: np.full(3, 1.0 / 3.0))
    like_probs: np.ndarray = field(default_factory=lambda: LIKE_PROBS.copy())
    obs_probs: np.ndarray = field(default_factory=lambda: OBS_UNIFORM.copy())
    num_users: int = 400
    num_items: int = 300
    seed: int = 0
    disadvantaged_user_groups: tuple = DISADVANTAGED_USER_GROUPS

    def __post_init__(self):
        self.user_group_proportions = np.asarray(self.user_group_proportions, dtype=np.float64)
        self.item_group_proportions = np.asarray(self.item_group_proportions, dtype=np.float64)
        self.like_probs = np.asarray(self.like_probs, dtype=np.float64)
        self.obs_probs = np.asarray(self.obs_probs, dtype=np.float64)

    def validate(self):
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


@dataclass(eq=False)
class SyntheticDataset:
    """Generated data: the observed ratings, the binary labels the model may
    see, the hidden user and item blocks (indices into the spec's labels),
    and the expected score (2 * like_prob - 1) for every grid cell."""

    observed: RatingSet
    groups: GroupAssignment
    user_group: np.ndarray
    item_group: np.ndarray
    expected_ratings: np.ndarray
    spec: BlockModelSpec


def builtin_specs(num_users: int = 400, num_items: int = 300, seed: int = 0) -> dict:
    """The four standard settings, keyed U, O, P, P+O."""
    def make(pop, obs):
        return BlockModelSpec(user_group_proportions=pop.copy(), obs_probs=obs.copy(),
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
    """Draw one dataset from the block model."""
    spec.validate()
    m, n = spec.num_users, spec.num_items
    # Independent substreams: user assignment, item assignment, likes, observation.
    streams = np.random.SeedSequence(spec.seed).spawn(4)
    user_group = _assign_groups(spec.user_group_proportions, m, np.random.default_rng(streams[0]))
    item_group = _assign_groups(spec.item_group_proportions, n, np.random.default_rng(streams[1]))

    cell_like = spec.like_probs[user_group][:, item_group]
    cell_obs = spec.obs_probs[user_group][:, item_group]
    likes = np.random.default_rng(streams[2]).random((m, n)) < cell_like
    observed_mask = np.random.default_rng(streams[3]).random((m, n)) < cell_obs

    rows, cols = np.nonzero(observed_mask)
    values = np.where(likes[rows, cols], 1.0, -1.0)
    observed = RatingSet(rows, cols, values, m, n, validate=False)

    disadvantaged = np.isin(np.asarray(spec.user_group_labels)[user_group],
                            spec.disadvantaged_user_groups)
    expected = 2.0 * cell_like - 1.0
    return SyntheticDataset(observed, GroupAssignment(disadvantaged), user_group, item_group,
                            expected, spec)


def evaluation_set(data: SyntheticDataset) -> RatingSet:
    """Held-out targets: every unobserved grid cell paired with its expected
    score.  Empty when everything was observed."""
    m, n = data.spec.num_users, data.spec.num_items
    mask = np.ones((m, n), dtype=bool)
    mask[data.observed.users, data.observed.items] = False
    rows, cols = np.nonzero(mask)
    return RatingSet(rows, cols, data.expected_ratings[rows, cols], m, n, validate=False)


def spec_to_json(spec: BlockModelSpec) -> str:
    """Serialize a spec so custom distributions can ride through the CLI."""
    payload = {f.name: getattr(spec, f.name) for f in fields(BlockModelSpec)}
    return json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)


# Fields a spec file may leave out; every other field is required.
_OPTIONAL_FIELDS = ("seed", "disadvantaged_user_groups")


def _field_value(f, value):
    """A spec file's ``value`` for field ``f``, in the type the field holds."""
    if f.type == "int" and type(value) is int:
        return value
    if f.type == "tuple" and isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    if f.type == "np.ndarray":
        try:
            return np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            pass
    expected = {"int": "an integer", "tuple": "a list of strings"}.get(f.type, "numbers")
    raise ValueError(f"field {f.name!r} must hold {expected}, not {value!r}")


def spec_from_json(text: str) -> BlockModelSpec:
    """Parse a spec written by spec_to_json.  A malformed, missing or
    unknown field raises ValueError naming it."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("a block-model spec must be a JSON object")
    known = {f.name: f for f in fields(BlockModelSpec)}
    unknown = sorted(payload.keys() - known.keys())
    missing = [name for name in known if name not in payload and name not in _OPTIONAL_FIELDS]
    if unknown or missing:
        raise ValueError(f"unknown field {unknown[0]!r}" if unknown
                         else f"block-model spec JSON is missing field {missing[0]!r}")
    spec = BlockModelSpec(**{name: _field_value(known[name], value)
                             for name, value in payload.items()})
    spec.validate()
    return spec


def load_spec(path) -> BlockModelSpec:
    """Read a spec file; any fault in it raises ``<path>: <reason>``."""
    try:
        return spec_from_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
