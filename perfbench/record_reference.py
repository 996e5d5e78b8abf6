"""Record the reference output digests that ``run.py`` checks.

    python3 perfbench/record_reference.py

Runs every input set of every workload once for the reference seed and
rewrites ``reference.json``.  Only a change that is meant to alter the
curve CSVs, summary JSONs or eval reports should need this.
"""

from __future__ import annotations

import json
import shutil

import run
from workloads import INPUT_SETS, WORKLOADS, commands


def main() -> None:
    run.check_program()
    reference = json.loads(run.REFERENCE.read_text())
    out = run.WORK / "reference"
    digests = {}
    try:
        for workload in WORKLOADS:
            digests[workload] = []
            for k in range(INPUT_SETS):
                p = run.run_pass(commands(workload, reference["seed"], k,
                                          str(out)), out, "log")
                if p.failed_commands:
                    raise SystemExit(f"{workload} input set {k} failed")
                digests[workload].append(p.digest)
                print(workload, k, p.digest, flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    reference["digests"] = digests
    run.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
