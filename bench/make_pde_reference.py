"""Regenerate pde_reference.json, the table the pde-reference workload
checks its moving-boundary runs against for the seeds it ships.

    PYTHONPATH=src python3 bench/make_pde_reference.py

Run it only when the expected answers change on purpose, and say why in
the change that commits the new table.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

SEEDS = range(20)


def main() -> int:
    table = {}
    for seed in SEEDS:
        workload = workloads.PdeReference(seed)
        workload.prepare()
        digests = workload.digest(workload.run_pass(workloads.Recorder()))
        failed = [d for d in digests if isinstance(d, workloads.TaskError)]
        if failed:
            print(f"seed {seed}: {failed}", file=sys.stderr)
            return 1
        table[str(seed)] = [{key: d[key] for key in ("name", "stopped_on", "t_final", "radii")}
                            for d in digests]
    with open(workloads.PDE_REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"fractions": workloads.PDE_FRACTIONS, "seeds": table}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
