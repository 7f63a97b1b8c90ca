"""Command-line front end.

Commands: ``generate`` (synthetic datasets), ``train`` (one model),
``evaluate`` (score a saved model), ``experiment`` (multi-trial sweeps),
``prepare-movielens`` (archive filtering), and ``rerun`` (repeat a recorded
run from its manifest).

Every command writes a ``manifest.json`` into its output directory holding
the resolved parameters, input checksums, output names, tool version,
wall-clock time, environment and peak RSS, its own and its workers';
``rerun`` replays it and reproduces the result files byte for byte.
Precedence: flags > --config file > FAIRCF_* environment variables > defaults.
Exit codes: 0 success, 2 usage error, 1 data/runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import os

import numpy as np
import scipy

from . import __version__
from .data import (read_groups, read_json_object, read_ratings, write_fields, write_groups,
                   write_json, write_ratings)
from .experiments import (SCENARIOS, SETTING_BY_SCENARIO, ExperimentPlan, evaluate, render,
                          render_settings, run_bias_settings_study, run_experiment,
                          write_long_csv)
from .fairness import PENALTY_KINDS, check_penalty
from .ingest import (ARCHIVE_FILES, DEFAULT_GENRES, DEFAULT_MIN_RATINGS, filter_dataset,
                     genre_stats, parse)
from .model import TrainConfig, load_params, save_params
from .synthetic import BlockModelSpec, builtin_specs, evaluation_set, generate, load_spec
from .trainer import train

ENV_PREFIX = "FAIRCF_"

# Each builtin setting by its own name or by its experiment scenario's.
GENERATE_SCENARIOS = {**{s: s for s in SETTING_BY_SCENARIO.values()}, **SETTING_BY_SCENARIO}

# flag -> (TrainConfig field, help); the field gives the flag's type and default.
_TRAIN_PARAMS = {
    "dim": ("d", "latent dimension"),
    "reg": ("lambda_reg", "L2 weight on the factor matrices"),
    "iterations": ("iterations", "full-gradient update count"),
    "learning-rate": ("learning_rate", "Adam learning rate"),
    "penalty-weight": ("penalty_weight", "scale on the fairness penalty"),
}
_TRAIN_SCHEMA = {flag: (type(getattr(TrainConfig, name)), getattr(TrainConfig, name), False, help_text)
                 for flag, (name, help_text) in _TRAIN_PARAMS.items()}

# Adam's constants, flags of train and experiment up to version 0.2.0, whose
# manifests all record them at these values: a rerun drops them.
_RETIRED_PARAMS = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-08}


class AbsolutePath(str):
    """A path parameter, made absolute as it is resolved, so that a manifest
    names its files for a rerun from any working directory."""

    def __new__(cls, value):
        return super().__new__(cls, os.path.abspath(value))


# name -> (type, default, required, help); None default means "unset".
_SCHEMAS = {
    "generate": {
        "scenario": (str, None, False, "builtin setting: " + ", ".join(sorted(set(GENERATE_SCENARIOS)))),
        "spec": (AbsolutePath, None, False, "JSON block-model spec file (instead of --scenario)"),
        "users": (int, None, False, f"number of users (default {BlockModelSpec.num_users}, or the spec file's)"),
        "items": (int, None, False, f"number of items (default {BlockModelSpec.num_items}, or the spec file's)"),
        "seed": (int, None, False, f"root seed (default {BlockModelSpec.seed}, or the spec file's)"),
        "out": (AbsolutePath, None, True, "output directory"),
    },
    "train": {
        "data": (AbsolutePath, None, True, "dataset directory with ratings.tsv and groups.tsv"),
        "out": (AbsolutePath, None, True, "output directory"),
        "penalty": (str, TrainConfig.penalty, False, "fairness penalty: " + ", ".join(PENALTY_KINDS)),
        "seed": (int, TrainConfig.seed, False, "initialization seed"),
        **_TRAIN_SCHEMA,
    },
    "evaluate": {
        "model": (AbsolutePath, None, True, "saved model file"),
        "data": (AbsolutePath, None, True, "dataset directory with groups.tsv"),
        "targets": (AbsolutePath, None, False,
                    "target rating file (default: <data>/expected.tsv)"),
        "out": (AbsolutePath, None, True, "output directory"),
    },
    "experiment": {
        "scenario": (str, None, True, "one of " + ", ".join(SCENARIOS) + ", fig1"),
        "trials": (int, None, False, "trial count (default 3 synthetic, 5 fig1/movielens)"),
        "penalties": (str, ",".join(ExperimentPlan.penalties), False, "comma-separated penalty kinds"),
        "users": (int, ExperimentPlan.num_users, False, "synthetic user count"),
        "items": (int, ExperimentPlan.num_items, False, "synthetic item count"),
        "seed": (int, ExperimentPlan.seed, False, "root seed"),
        "ml-dir": (AbsolutePath, None, False, "MovieLens-1M directory (movielens scenario)"),
        "test-fraction": (float, ExperimentPlan.test_fraction, False, "held-out fraction for movielens"),
        "jobs": (int, ExperimentPlan.jobs, False, "parallel trial workers"),
        "out": (AbsolutePath, None, True, "output directory"),
        **_TRAIN_SCHEMA,
    },
    "prepare-movielens": {
        "ml-dir": (AbsolutePath, None, True, "MovieLens-1M directory (users/movies/ratings.dat)"),
        "out": (AbsolutePath, None, True, "output directory"),
        "genres": (str, ",".join(DEFAULT_GENRES).lower(), False, "comma-separated genre filter"),
        "min-ratings": (int, DEFAULT_MIN_RATINGS, False, "activity threshold on selected-genre ratings"),
    },
}

_CHOICES = {
    ("generate", "scenario"): sorted(set(GENERATE_SCENARIOS)),
    ("train", "penalty"): list(PENALTY_KINDS),
    ("experiment", "scenario"): list(SCENARIOS) + ["fig1"],
}


class UsageError(Exception):
    pass


def _checksum(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _resolve(command: str, cli_values: dict, file_values: dict, origin: str) -> dict:
    """Merge flags > file values (a config file or a manifest's params) >
    environment > defaults for one command, converting each string (a flag
    or an environment value) to the parameter's type.  A file key that is
    not a parameter of ``command``, in its ``-`` or ``_`` spelling, is a
    UsageError naming ``origin`` and the key; a bad value is one naming
    where it came from: ``--flag``, ``FAIRCF_NAME`` or ``<origin>: key``."""
    schema = _SCHEMAS[command]
    known = {spelling for name in schema for spelling in (name, name.replace("-", "_"))}
    for key in file_values:
        if key not in known:
            raise UsageError(f"{origin}: unknown parameter {key!r} for '{command}'")
    params = {}
    for name, (typ, default, required, _) in schema.items():
        key = name.replace("-", "_")
        value, source = default, f"--{name}"
        env_name = ENV_PREFIX + key.upper()
        if env_name in os.environ:
            value, source = os.environ[env_name], env_name
        if name in file_values and key in file_values and name != key:
            raise UsageError(f"{origin}: {name!r} and {key!r} name one parameter")
        if name in file_values or key in file_values:
            spelling = name if name in file_values else key
            value, source = file_values[spelling], f"{origin}: {spelling}"
        if cli_values.get(key) is not None:
            value, source = cli_values[key], f"--{name}"
        if (value is not None and not isinstance(value, typ)) or isinstance(value, bool):
            try:
                if isinstance(value, (bool, float)):     # JSON true, or 2.5 for an int
                    raise TypeError
                value = typ(value)
            except (TypeError, ValueError):
                raise UsageError(f"{source}: expected {typ.__name__}, got {value!r}") from None
        if required and value is None:
            raise UsageError(f"--{name} is required for '{command}'")
        if value is None and default is not None:
            raise UsageError(f"{source}: expected {typ.__name__}, got null")
        choices = _CHOICES.get((command, name))
        if choices and value is not None and value not in choices:
            raise UsageError(f"{source}: invalid choice {value!r} (choose from {', '.join(choices)})")
        params[key] = value
    return params


def _train_config(params: dict, **fixed) -> TrainConfig:
    return TrainConfig(**fixed, **{name: params[flag.replace("-", "_")]
                                   for flag, (name, _) in _TRAIN_PARAMS.items()})


def _dataset_dims(manifest: Path):
    """Grid dimensions recorded by a previous generate/prepare run in
    ``manifest``, if it exists."""
    if not manifest.exists():
        return None, None
    ds = read_json_object(manifest, "manifest").get("dataset", {})
    if not isinstance(ds, dict):
        raise ValueError(f"{manifest}: 'dataset' must be a JSON object")
    dims = ds.get("num_users"), ds.get("num_items")
    if dims != (None, None) and not all(type(x) is int and x > 0 for x in dims):
        raise ValueError(f"{manifest}: 'dataset' must hold num_users and num_items "
                         "as positive integers")
    return dims


def _read_labelled_set(groups_path: Path, ratings_path: Path, grid_path: Path, num_users,
                       num_items, use: str):
    """The group labels and the ratings on the grid that ``grid_path`` sets
    (``num_users`` None: one user per label).  Labels for another user count
    are a fault naming both files, an empty set one reading ``cannot <use>``."""
    groups = read_groups(groups_path)
    ratings = read_ratings(ratings_path, num_users=num_users or groups.num_users,
                           num_items=num_items)
    if groups.num_users != ratings.num_users:
        raise ValueError(f"{groups_path} labels {groups.num_users} users, "
                         f"but the grid of {grid_path} has {ratings.num_users} users")
    if not len(ratings):
        raise ValueError(f"{ratings_path}: cannot {use}")
    return groups, ratings


def _cmd_generate(params: dict):
    if (params["scenario"] is None) == (params["spec"] is None):
        raise UsageError("generate needs exactly one of --scenario or --spec")
    inputs = [params["spec"]] if params["spec"] else []
    spec = (load_spec(params["spec"]) if params["spec"]
            else builtin_specs()[GENERATE_SCENARIOS[params["scenario"]]])
    flags = {"seed": params["seed"], "num_users": params["users"], "num_items": params["items"]}
    spec = replace(spec, **{name: value for name, value in flags.items() if value is not None})
    ds = generate(spec)
    held_out = evaluation_set(ds)
    out = Path(params["out"])
    write_ratings(ds.observed, out / "ratings.tsv")
    write_groups(ds.groups, out / "groups.tsv")
    write_ratings(held_out, out / "expected.tsv")
    dataset = {
        "num_users": spec.num_users,
        "num_items": spec.num_items,
        "num_observed": len(ds.observed),
        "num_expected": len(held_out),
        "seed": spec.seed,
    }
    return inputs, ["ratings.tsv", "groups.tsv", "expected.tsv"], dataset


def _cmd_train(params: dict):
    data_dir = Path(params["data"])
    ratings_path, groups_path = data_dir / "ratings.tsv", data_dir / "groups.tsv"
    for path in (ratings_path, groups_path):
        if not path.exists():
            raise FileNotFoundError(f"missing {path}")
    manifest = data_dir / "manifest.json"       # the grid of a generate or prepare run, if any
    groups, ratings = _read_labelled_set(groups_path, ratings_path, ratings_path,
                                         *_dataset_dims(manifest), "train on an empty rating set")
    config = _train_config(params, penalty=params["penalty"], seed=params["seed"])
    model, trace = train(ratings, groups, config)
    out = Path(params["out"])
    save_params(model, out / "model.txt")
    trace.write_csv(out / "trace.csv")
    dataset = {"num_users": ratings.num_users, "num_items": ratings.num_items,
               "num_ratings": len(ratings)}
    inputs = [ratings_path, groups_path] + ([manifest] if manifest.exists() else [])
    return inputs, ["model.txt", "trace.csv"], dataset


def _cmd_evaluate(params: dict):
    model_path = Path(params["model"])
    data_dir = Path(params["data"])
    model = load_params(model_path)
    groups_path = data_dir / "groups.tsv"
    targets_path = Path(params["targets"]) if params["targets"] else data_dir / "expected.tsv"
    if not targets_path.exists():
        raise FileNotFoundError(
            f"no target file: {targets_path} (pass --targets to point at one)")
    groups, targets = _read_labelled_set(groups_path, targets_path, model_path, model.num_users,
                                         model.num_items, "evaluate on an empty target set")
    report = evaluate(model, targets, groups)
    out = Path(params["out"])
    (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    dataset = {"num_targets": len(targets)}
    return [model_path, groups_path, targets_path], ["report.csv"], dataset


def _cmd_experiment(params: dict):
    scenario = params["scenario"]
    default_trials = 3 if scenario.startswith("synthetic") else 5
    trials = default_trials if params["trials"] is None else params["trials"]
    fields = dict(trials=trials, config=_train_config(params), seed=params["seed"],
                  num_users=params["users"], num_items=params["items"], ml_dir=params["ml_dir"],
                  test_fraction=params["test_fraction"], jobs=params["jobs"])
    if scenario == "movielens" and not params["ml_dir"]:
        raise UsageError("--ml-dir is required for the movielens scenario")
    penalties = tuple(p.strip() for p in params["penalties"].split(",") if p.strip())
    out = Path(params["out"])
    if scenario == "fig1":
        for name in penalties:      # recorded in the manifest, though fig1 trains "none" only
            check_penalty(name)
        results = run_bias_settings_study(**fields)
        rows = [row for res in results.values() for row in res.long_rows()]
        table = render_settings(results)
        csv_table = render_settings(results, fmt="csv")
        summary = {"settings": {name: res.summary_dict() for name, res in results.items()}}
        dataset = {"trials": trials, "settings": list(results)}
    else:
        result = run_experiment(ExperimentPlan(scenario, penalties, **fields))
        rows = result.long_rows()
        table = render(result)
        csv_table = render(result, fmt="csv")
        summary = result.summary_dict()
        dataset = {"trials": trials, "penalties": list(penalties)}
    inputs = ([Path(params["ml_dir"]) / name for name in ARCHIVE_FILES]
              if scenario == "movielens" else [])
    write_long_csv(rows, out / "results.csv")
    (out / "table.txt").write_text(table, encoding="utf-8")
    (out / "table.csv").write_text(csv_table, encoding="utf-8")
    write_json(out / "summary.json", summary)
    return inputs, ["results.csv", "table.txt", "table.csv", "summary.json"], dataset


def _cmd_prepare_movielens(params: dict):
    ml_dir = Path(params["ml_dir"])
    genres = tuple(g.strip() for g in params["genres"].split(",") if g.strip())
    raw = parse(ml_dir)
    data = filter_dataset(raw, genres=genres, min_ratings=params["min_ratings"])
    stats = genre_stats(data)
    out = Path(params["out"])
    write_ratings(data.ratings, out / "ratings.tsv")
    write_groups(data.groups, out / "groups.tsv")
    for name, ids in (("user_map.tsv", data.user_ids), ("movie_map.tsv", data.movie_ids)):
        write_fields(out / name, "\t", (np.arange(ids.size), ids))
    (out / "genre_stats.csv").write_text(stats.to_csv(), encoding="utf-8")
    (out / "genre_stats.txt").write_text(stats.render(), encoding="utf-8")
    dataset = {
        "num_users": data.ratings.num_users,
        "num_items": data.ratings.num_items,
        "num_ratings": len(data.ratings),
        "user_map_sha256": _checksum(out / "user_map.tsv"),
        "movie_map_sha256": _checksum(out / "movie_map.tsv"),
    }
    outputs = ["ratings.tsv", "groups.tsv", "user_map.tsv", "movie_map.tsv",
               "genre_stats.csv", "genre_stats.txt"]
    return [ml_dir / name for name in ARCHIVE_FILES], outputs, dataset


_HANDLERS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "prepare-movielens": _cmd_prepare_movielens,
}


def _run_command(command: str, params: dict) -> int:
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    inputs, outputs, dataset = _HANDLERS[command](params)
    inputs = {str(path): _checksum(path) for path in inputs}
    write_json(out / "manifest.json", {
        "tool": "faircf",
        "version": __version__,
        "command": command,
        "params": params,
        "input_checksums": inputs,
        "outputs": sorted(outputs),
        "dataset": dataset,
        "wall_clock_seconds": time.perf_counter() - start,
        "environment": {"python": sys.version.split()[0], "numpy": np.__version__,
                        "scipy": scipy.__version__, "cpu_count": os.cpu_count()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,   # KiB on Linux
        "peak_rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    })
    return 0


def _cmd_rerun(manifest_path: str, out_override: str | None) -> int:
    path = Path(manifest_path)
    doc = read_json_object(path, "manifest")
    command = doc.get("command")
    if not isinstance(command, str) or command not in _HANDLERS:
        raise ValueError(f"{path}: manifest has no runnable command")
    params = doc.get("params", {})
    checksums = doc.get("input_checksums", {})
    if not isinstance(params, dict) or not isinstance(checksums, dict):
        raise ValueError(f"{path}: manifest 'params' and 'input_checksums' must be JSON objects")
    params = {key: value for key, value in params.items()
              if key not in _RETIRED_PARAMS or value != _RETIRED_PARAMS[key]}
    recorded_out = params.get("out")
    if out_override is None and isinstance(recorded_out, str) and not os.path.isabs(recorded_out):
        out_override = str(path.parent)     # an old relative out: the manifest lies in it
    try:
        params = _resolve(command, {"out": out_override}, params, "params")
    except UsageError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for input_path, recorded in checksums.items():
        if not Path(input_path).exists():
            raise FileNotFoundError(f"{path}: manifest input missing: {input_path}")
        if _checksum(input_path) != recorded:
            raise ValueError(
                f"{path}: manifest input changed since the recorded run: {input_path}")
    return _run_command(command, params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="faircf",
                                     description="fairness-aware collaborative filtering")
    parser.add_argument("--version", action="version", version=f"faircf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        sp = sub.add_parser(command, help=f"{command} command")
        sp.add_argument("--config", help="JSON file with parameter overrides")
        for name, (_, default, required, help_text) in schema.items():
            if required:
                help_text += " (required)"
            elif default is not None:       # None is "unset"; the help text says what then
                help_text += f" (default: {default})"
            sp.add_argument(f"--{name}", dest=name.replace("-", "_"), help=help_text)
    rerun = sub.add_parser("rerun", help="repeat a recorded run from its manifest")
    rerun.add_argument("manifest", help="manifest.json written by a previous run")
    rerun.add_argument("--out", help="redirect outputs (default: recorded dir)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            return _cmd_rerun(args.manifest, args.out)
        cli_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        file_values = read_json_object(args.config, "config") if args.config else {}
        params = _resolve(args.command, cli_values, file_values, args.config)
        return _run_command(args.command, params)
    except UsageError as exc:
        print(f"faircf {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"faircf {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
