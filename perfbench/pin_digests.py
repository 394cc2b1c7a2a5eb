"""Pin the report digests that run.py checks, from the checked-out program.

    python3 perfbench/pin_digests.py

Runs every job at run.DEFAULT_SEED, and once more for each value in
inputs.SIGNED_VALUES as the sl3 scale, the theta scale and the qt ``s``,
which covers every input a seed can give except the dense sl2 ``r``. Each
job must exit 0 with every certificate true. The SHA-256 of each
``--emit full`` report goes to digests.json with the git SHA it was taken
from. Run it only when a change is meant to alter the reports' bytes.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import run
from inputs import SIGNED_VALUES, WORKLOADS, Params, workload_jobs


def variants():
    default = Params.from_seed(run.DEFAULT_SEED)
    yield "default", default
    for i, v in enumerate(SIGNED_VALUES):
        yield f"value{i}", dataclasses.replace(default, sl3_scale=v, theta_scale=v, qt_s=v)


def main() -> int:
    os.chdir(run.ROOT)
    digests = {}
    for label, params in variants():
        for workload in WORKLOADS:
            jobs = workload_jobs(workload, params, run.OUT / "inputs" / f"pin-{label}")
            run.validate_inputs(jobs)
            for job in jobs:
                key = run.digest_key(job)
                if key in digests:
                    continue
                sample, _ = run.run_job(job, "plain", None)
                if sample.problem:
                    print(f"{key}: {sample.problem}", file=sys.stderr)
                    return 1
                stdout = (run.OUT / "jobs" / f"{job.name}-plain.out").read_bytes()
                digests[key] = hashlib.sha256(stdout).hexdigest()
                print(f"{key} {digests[key]} ({len(stdout)} bytes, {sample.wall_s:.2f} s)",
                      flush=True)
    run.PINS.write_text(json.dumps({"git_sha": run.git_sha(), "digests": digests},
                                   indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
