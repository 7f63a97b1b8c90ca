"""Rewrite reference.json from the current code.  From the root of a checkout:

    python3 perfbench/make_reference.py

Records the outputs of one cycle of every workload at the reference seed:
each train call's last objective and penalty, the six held-out metrics of
the library and CLI evaluations, the sweep means and the prepared grid
dimensions.  Runs at the reference seed compare against these values.  Only
a change that is meant to alter results should rewrite them.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_faircf()
    import workloads
    doc = {"seed": workloads.REFERENCE_SEED, "rel_tol": workloads.REFERENCE_RTOL,
           "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        with run.workdir(name) as work:
            cycles = workloads.Cycles(name, workload, workloads.REFERENCE_SEED, work,
                                      check_reference=False)
            cycles.run(workloads.setup(workload, workloads.REFERENCE_SEED, work))
        if cycles.failed:
            print("\n".join(cycles.failures), file=sys.stderr)
            return 1
        doc["workloads"][name] = cycles.first_outputs
        print(f"{name}: {len(cycles.first_outputs)} values", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
