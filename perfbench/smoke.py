"""Smoke test of the benchmark itself.  From the root of a checkout:

    python3 perfbench/smoke.py

Runs one cycle of every workload at tiny sizes, untraced and traced, and
fails (exit 1) unless every call and output check passes, the traced
outputs are bit-identical to the untraced ones, the metric names match
BENCHMARK.json, and the per-iteration call counts match the training loop
(2 and 4 predictions, 1 and 2 accumulations per plain and penalized
iteration).
"""

from __future__ import annotations

import json
import sys

import run

SEED = 3
EXPECTED_PER_ITER = {
    "model.predict_entries.calls_per_iter_plain": 2,
    "model.predict_entries.calls_per_iter_fair": 4,
    "model.accumulate_gradient.calls_per_iter_plain": 1,
    "model.accumulate_gradient.calls_per_iter_fair": 2,
}


def main() -> int:
    run.import_faircf()
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {"end_to_end": {m["name"] for m in spec["end_to_end"]},
             "per_layer": {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        small = workloads.tiny(workload)
        outputs = {}
        for trace, measure, kind in ((0, run.measure, "end_to_end"),
                                     (1, run.measure_traced, "per_layer")):
            with run.workdir(name) as work:
                cycles, _, metrics, _, _ = measure(name, small, SEED, 0, work,
                                                   check_reference=False)
            problems += [f"{name} trace {trace}: {f}" for f in cycles.failures]
            if set(metrics) != names[kind]:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ names[kind])}")
            outputs[trace] = cycles.first_outputs
            if trace:
                problems += [f"{name}: {key} is {metrics[key][0]}, expected {want}"
                             for key, want in EXPECTED_PER_ITER.items()
                             if metrics[key][0] != want]
        if outputs[0] != outputs[1]:
            problems.append(f"{name}: traced outputs differ from untraced ones")
        print(f"{name}: {len(outputs[0])} outputs checked", flush=True)
    for problem in problems:
        print(f"smoke: FAILED {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
