"""faircf benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

It imports faircf from ``./src`` of that checkout, generates the workload's
inputs from ``--seed`` (set-up, repeated SETUP_REPEATS times), then runs the
workload's cycle of calls in a closed loop (one caller, one call after
another) for about ``--seconds``.  Every output is checked.  With
``--trace 0`` it reports the end-to-end metrics (see ``aggregate``);
with ``--trace 1`` it alternates untraced and traced cycles and reports the
per-layer metrics instead.  The last line of standard output is the JSON
result; the lines before it name every metric with its unit, sample count
and quartiles, plus the environment and sizing block.  Spans and the full
report are written under ``.perfbench_out/``.  Exit code 1, with no result
line, when the checkout has no faircf sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(".perfbench_out")
WORK_ROOT = Path(".perfbench_work")
SETUP_REPEATS = 3

# End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "train_plain_ms_per_iter": "ms",
    "train_fair_ms_per_iter": "ms", "eval_mcells_per_s": "Mcells/s", "prepare_s": "s",
    "cli_train_s": "s", "cli_evaluate_s": "s", "rerun_s": "s", "peak_rss_mb": "MB",
}


def import_faircf():
    """Import faircf from this checkout's sources, never from elsewhere."""
    package = SRC / "faircf"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no faircf sources in {package}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import faircf
    if Path(faircf.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported faircf from {faircf.__file__}, not from {package}")
    return faircf


def _cache_bytes():
    """L2 and last-level cache sizes of CPU 0, from sysfs."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        sizes[level] = int(size.rstrip("KMG")) * scale
    return {"l2_bytes": sizes.get(2), "llc_bytes": sizes[max(sizes)] if sizes else None}


def _blas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS so its threads show

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "cpu_count": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy), "scipy": blas_version(scipy)},
        "blas_threads": _blas_threads(),
        **_cache_bytes(),
    }


@contextlib.contextmanager
def workdir(name):
    """A fresh scratch directory inside the checkout, removed on exit."""
    work = WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def closed_loop(seconds, run_once):
    """Call ``run_once``, which returns its elapsed time, until another call
    would end past ``seconds``; always at least once."""
    elapsed = []
    start = time.perf_counter()
    while True:
        elapsed.append(run_once())
        if time.perf_counter() - start + statistics.median(elapsed) > seconds:
            return


def aggregate(key, values):
    """One run's value of an end-to-end metric from its samples.

    Set-up time is the median of the repeats.  Every other timing is the
    total time of its calls over the work they did: the mean of per-call
    times, the harmonic mean of per-call rates.  The host this was tuned on
    switches between two speeds about 1.45x apart for seconds to minutes;
    a per-call median then jumps to whichever speed held most calls of the
    run, while the total follows the share of time spent at each.
    """
    if key == "setup_s":
        return statistics.median(values)
    if key == "eval_mcells_per_s":
        return statistics.harmonic_mean(values)
    return statistics.fmean(values)


def measure(name, workload, seed, seconds, work, check_reference=True):
    """Untraced run: the end-to-end metrics."""
    import workloads
    cycles = workloads.Cycles(name, workload, seed, work, check_reference)
    inputs, setup_times = cycles.setup(SETUP_REPEATS)
    closed_loop(seconds, lambda: cycles.run(inputs))
    samples = dict(cycles.samples, setup_s=setup_times, wall_s=cycles.busy,
                   peak_rss_mb=[resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
    metrics = {key: (aggregate(key, samples[key]), unit)
               for key, unit in END_TO_END.items() if key in samples}
    return cycles, inputs, metrics, samples, None


def measure_traced(name, workload, seed, seconds, work, check_reference=True):
    """Traced run: untraced and traced cycles alternate; the per-layer
    metrics come from the traced ones."""
    import faircf
    import spans
    import workloads
    cycles = workloads.Cycles(name, workload, seed, work, check_reference)
    tracer = spans.Tracer(faircf)

    def traced(fn):
        tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()

    cycles.setup()
    tracer.cycle, tracer.operation = spans.SETUP, "setup"
    inputs, _ = traced(cycles.setup)     # checked against the untraced set-up
    cycles.on_operation = lambda operation: setattr(tracer, "operation", operation)

    untraced_busy, traced_busy, traced_elapsed = [], [], {}

    def pair():
        elapsed = cycles.run(inputs)
        untraced_busy.append(cycles.busy[-1])
        tracer.cycle = len(traced_elapsed)
        traced_elapsed[tracer.cycle] = traced(lambda: cycles.run(inputs))
        traced_busy.append(cycles.busy[-1])
        return elapsed + traced_elapsed[tracer.cycle]

    closed_loop(seconds, pair)
    metrics = spans.summarize(tracer, traced_elapsed, traced_busy, untraced_busy)
    samples = {"untraced_wall_s": untraced_busy, "traced_wall_s": traced_busy}
    return cycles, inputs, metrics, samples, tracer


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_faircf()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    runner = measure_traced if args.trace else measure
    with workdir(args.workload) as work:
        cycles, inputs, metrics, samples, tracer = runner(args.workload, workload, args.seed,
                                                          args.seconds, work)
        sizes = workloads.sizing(workload, inputs)

    env = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "sizing": sizes, "attempted": cycles.attempted,
        "failed": cycles.failed, "failures": cycles.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n",
                                            encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")

    for failure in cycles.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"sizing {json.dumps(sizes, sort_keys=True)} "
          f"(l2_bytes {env['l2_bytes']}, llc_bytes {env['llc_bytes']})")
    print(f"ops_failed_ratio {cycles.failed / max(1, cycles.attempted):.6g} "
          f"({cycles.failed} of {cycles.attempted} calls and checks)")
    for key, (value, unit) in metrics.items():
        values = samples.get(key)
        spread = ""
        if values:
            q1, q3 = _quartiles(values)
            spread = (f"  from {len(values)} samples: median {statistics.median(values):.6g}, "
                      f"quartiles {q1:.6g} .. {q3:.6g}")
        print(f"{key:44s} {value:14.6g} {unit}{spread}")
    print(json.dumps({
        "correct": cycles.failed == 0,
        "attempted": cycles.attempted,
        "failed": cycles.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
