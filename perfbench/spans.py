"""In-memory span tracer for the traced benchmark run.

Each traced function is replaced, in every ``faircf`` module namespace that
binds it, by a wrapper that records one span per call: the function's key,
start and end times, the index of the calling span and the top-level
operation the bench was running.  Wrapping every binding matters because
``from .model import predict_entries`` gives each importing module its own
name for the function.  Names that no longer exist are skipped, so a later
refactor that removes a function leaves the bench running; that function
then reports zero calls and zero seconds.

Spans stay in a list until the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import statistics
import time

# (layer, qualified name inside faircf.<layer>) for every traced function.
TRACED = (
    ("model", "predict_entries"), ("model", "accumulate_gradient"),
    ("model", "mf_gradient"), ("model", "mf_objective"),
    ("fairness", "group_item_averages"), ("fairness", "penalty"),
    ("fairness", "penalty_gradient"),
    ("trainer", "train"), ("trainer", "adam_step"),
    ("experiments", "evaluate"), ("experiments", "run_experiment"), ("experiments", "render"),
    ("synthetic", "generate"), ("synthetic", "evaluation_set"),
    ("data", "read_ratings"), ("data", "write_ratings"), ("data", "read_groups"),
    ("data", "RatingSet.validate"),
    ("ingest", "parse"), ("ingest", "filter_dataset"), ("ingest", "genre_stats"),
    ("cli", "main"),
)

TRAIN = "trainer.train"
# Ratios of calls inside train() to training iterations, split by whether
# the run carries a penalty.
PER_ITER_COUNTED = ("model.predict_entries", "model.accumulate_gradient")
# key -> the span attribute that counts bytes for a throughput ratio.
THROUGHPUT = {
    "model.predict_entries": "computed_gb_per_s",
    "data.read_ratings": "mb_per_s",
    "data.write_ratings": "mb_per_s",
    "ingest.parse": "mb_per_s",
}
SETUP = -1


def _train_attrs(ratings, groups, config):
    return (config.penalty, config.iterations)


def _predict_bytes(params, users, items):
    # Computed, not measured: two index reads, the gathered user and item
    # factor rows and biases, and the output, 8 bytes per number.
    return len(users) * 8 * (2 + 2 * params.d + 2 + 1)


def _file_bytes(path, *args, **kwargs):
    return os.path.getsize(path)


def _written_bytes(ratings, path):
    return os.path.getsize(path)


def _archive_bytes(ml_dir):
    return sum(os.path.getsize(os.path.join(ml_dir, name))
               for name in ("users.dat", "movies.dat", "ratings.dat"))


# Computed after the call returns, outside the span's own interval.
ATTRS = {
    TRAIN: _train_attrs,
    "model.predict_entries": _predict_bytes,
    "data.read_ratings": _file_bytes,
    "data.write_ratings": _written_bytes,
    "ingest.parse": _archive_bytes,
}


class Tracer:
    """Installs wrappers on demand; ``spans`` holds
    [key, start, end, parent index, cycle, operation, attrs] lists."""

    def __init__(self, package):
        self.spans = []
        self.stack = []
        self.cycle = SETUP
        self.operation = "setup"
        self._patches = []
        self.missing = []
        modules = [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)]
        for layer, qualname in TRACED:
            owner_name, _, attr = qualname.rpartition(".")
            module = getattr(package, layer, None)
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{layer}.{qualname}")
                continue
            wrapper = self._wrap(f"{layer}.{qualname}", original)
            if owner_name:
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original, wrapper))

    def keys(self):
        return [f"{layer}.{qualname}" for layer, qualname in TRACED]

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, key, fn):
        attrs = ATTRS.get(key)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.cycle, self.operation, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[1] = clock()
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[6] = attrs(*args, **kwargs)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["key", "start", "end", "parent", "cycle", "operation",
                                  "attrs"],
                       "missing": self.missing, "spans": self.spans}, fh)


def _self_times(spans):
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _train_ancestor(spans, index):
    while index >= 0:
        if spans[index][0] == TRAIN:
            return spans[index]
        index = spans[index][3]
    return None


def summarize(tracer, traced_elapsed, traced_busy, untraced_busy):
    """Per-layer metrics for one traced set-up plus one traced cycle.

    Counts and byte totals come from the first traced cycle (every cycle does
    the same work); times are the set-up's plus the median over the traced
    cycles.  ``traced_elapsed`` maps each traced cycle to its elapsed time;
    the busy lists hold the time inside top-level calls of each cycle.
    """
    spans = tracer.spans
    cycles = sorted(traced_elapsed)
    own = _self_times(spans)
    first = cycles[0]
    per_cycle = {c: {} for c in cycles}
    setup = {}
    calls, moved = {}, {}
    iterations = {"plain": 0, "fair": 0}
    in_train = {(k, kind): 0 for k in PER_ITER_COUNTED for kind in iterations}
    top_level = {c: 0.0 for c in cycles}
    for i, s in enumerate(spans):
        key, cycle = s[0], s[4]
        if cycle == SETUP:
            setup[key] = setup.get(key, 0.0) + own[i]
        else:
            bucket = per_cycle[cycle]
            bucket[key] = bucket.get(key, 0.0) + own[i]
            if s[3] < 0:
                top_level[cycle] += s[2] - s[1]
        if cycle not in (SETUP, first):
            continue
        calls[key] = calls.get(key, 0) + 1
        if key in THROUGHPUT:
            moved[key] = moved.get(key, 0) + s[6]
        if key == TRAIN:
            penalty, iters = s[6]
            iterations["plain" if penalty == "none" else "fair"] += iters
        elif key in PER_ITER_COUNTED:
            train = _train_ancestor(spans, s[3])
            if train is not None:
                in_train[(key, "plain" if train[6][0] == "none" else "fair")] += 1

    metrics = {}
    for key in tracer.keys():
        seconds = setup.get(key, 0.0) + statistics.median(per_cycle[c].get(key, 0.0)
                                                           for c in cycles)
        metrics[f"{key}.calls"] = (calls.get(key, 0), "count")
        metrics[f"{key}.self_s"] = (seconds, "s")
        if key in THROUGHPUT:
            name = THROUGHPUT[key]
            scale, unit = (1e9, "GB/s") if name.startswith("computed_gb") else (1e6, "MB/s")
            rate = moved.get(key, 0) / scale / seconds if seconds > 0 else 0.0
            metrics[f"{key}.{name}"] = (rate, unit)
    for (key, kind), count in in_train.items():
        per_iter = count / iterations[kind] if iterations[kind] else 0.0
        metrics[f"{key}.calls_per_iter_{kind}"] = (per_iter, "count")
    metrics["bench.unattributed_s"] = (
        statistics.median(traced_elapsed[c] - top_level[c] for c in cycles), "s")
    metrics["bench.trace_overhead_s"] = (
        statistics.median(traced_busy) - statistics.median(untraced_busy), "s")
    return metrics
