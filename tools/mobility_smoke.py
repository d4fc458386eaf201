#!/usr/bin/env python
"""Mobility/ARQ smoke test for CI.

Sweeps the quick T13 point (mobility churn + continuous fading + ARQ)
at churn rate 3.0 with two seeded replications under
``REPRO_SANITIZE=1``, twice: once with ``--jobs 1`` (inline) and once
with ``--jobs 2`` (one spawned worker per replication).  It asserts the
worker fan-out is invisible: the two ``--output`` JSON files (rows,
payload digests, errors) must be byte-identical.  The sanitizer turns
any incremental-field drift or exact-restore violation inside the
channel process into a hard failure, so this doubles as the
continuous-channel correctness gate.

The ``--jobs 1`` sweep report is written to ``--report-output`` for CI
to archive.  Exit status is non-zero on any mismatch or failed task.

Usage::

    python tools/mobility_smoke.py --report-output mobility-report.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SWEEP_ARGS = [
    "sweep",
    "--experiment", "T13",
    "--values", "3.0",
    "--replications", "2",
]


def run_sweep(jobs, output, env):
    """Run the T13 sweep at ``jobs`` workers; return its stdout."""
    command = [sys.executable, "-m", "repro", *SWEEP_ARGS,
               "--jobs", str(jobs), "--output", str(output)]
    completed = subprocess.run(
        command,
        env=env,
        check=True,
        timeout=900.0,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    return completed.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report-output", default="mobility-report.txt", metavar="PATH",
        help="where to write the T13 sweep report",
    )
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SANITIZE"] = "1"

    with tempfile.TemporaryDirectory() as workdir:
        reports = {}
        outputs = {}
        for jobs in (1, 2):
            print(f"== T13 sweep, 2 replications, --jobs {jobs}, sanitizer on ==",
                  flush=True)
            output = Path(workdir) / f"t13-jobs{jobs}.json"
            reports[jobs] = run_sweep(jobs, output, env)
            outputs[jobs] = output.read_bytes()
            digest = hashlib.sha256(outputs[jobs]).hexdigest()[:16]
            print(f"output digest: {digest}")

    if outputs[1] != outputs[2]:
        print("MISMATCH between the --jobs 1 and --jobs 2 output files:")
        for one, two in zip(
            outputs[1].decode().splitlines(), outputs[2].decode().splitlines()
        ):
            marker = "  " if one == two else "!!"
            print(f"{marker} {one}")
            if one != two:
                print(f"!! {two}")
        raise SystemExit(1)

    # The report's last line names the temporary output file; drop it.
    report = "".join(
        line for line in reports[1].splitlines(keepends=True)
        if not line.startswith("wrote ")
    )
    with open(args.report_output, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(report)
    print(
        "mobility smoke OK: --jobs 1 and --jobs 2 sweep outputs "
        f"byte-identical; report written to {args.report_output}"
    )


if __name__ == "__main__":
    main()
