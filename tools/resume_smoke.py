#!/usr/bin/env python
"""Kill-and-resume smoke test for sweeps run through the result cache.

Runs the same small sweep three ways and asserts that resuming through
the cache is invisible in the results:

1. uninterrupted, no cache — the reference artifact;
2. with ``--cache DIR``, SIGKILLed as soon as the cache holds at least
   one entry;
3. rerun with the same ``--cache DIR`` to completion.

The rerun's ``--output`` JSON must be byte-identical to the
uninterrupted run's, and its ``cache:`` traffic line must count as hits
exactly the entries the cache held before the rerun.  Exit status is
non-zero on any mismatch, so CI can gate on it directly.
"""

import argparse
import glob
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

SWEEP_ARGS = [
    "--experiment",
    "T7",
    "--values",
    "0.02,0.05,0.08,0.1",
    "--set",
    "station_count=12",
    "--set",
    "duration_slots=100",
]

#: The ``cache: H/T hits ...`` line a cached sweep prints to stderr.
TRAFFIC = re.compile(r"^cache: (\d+)/(\d+) hits", re.MULTILINE)


def sweep_command(jobs, output, cache_dir=None):
    command = [sys.executable, "-m", "repro", "sweep", *SWEEP_ARGS]
    command += ["--jobs", str(jobs), "--output", output]
    if cache_dir is not None:
        command += ["--cache", cache_dir]
    return command


def stored_entries(cache_dir):
    """Published entries in the cache (a killed write's temp file is
    not one)."""
    pattern = os.path.join(cache_dir, "objects", "*", "*.json")
    return sum(
        1 for path in glob.glob(pattern)
        if not os.path.basename(path).startswith(".tmp.")
    )


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=600.0,
        help="overall wall-clock budget for each child sweep",
    )
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")

    with tempfile.TemporaryDirectory() as scratch:
        baseline = os.path.join(scratch, "baseline.json")
        resumed = os.path.join(scratch, "resumed.json")
        cache_dir = os.path.join(scratch, "cache")

        print("== uninterrupted reference run ==", flush=True)
        subprocess.run(
            sweep_command(args.jobs, baseline),
            env=env,
            check=True,
            timeout=args.timeout_s,
            stdout=subprocess.DEVNULL,
        )

        print("== cached run, killed mid-flight ==", flush=True)
        child = subprocess.Popen(
            sweep_command(
                args.jobs, os.path.join(scratch, "ignored.json"), cache_dir
            ),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + args.timeout_s
        while stored_entries(cache_dir) < 1 and child.poll() is None:
            if time.monotonic() > deadline:
                child.kill()
                raise SystemExit("the cache never gained an entry")
            time.sleep(0.1)
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
            child.wait()
            print(f"killed after {stored_entries(cache_dir)} stored task(s)")
        else:
            # The sweep was too fast to interrupt; the rerun below then
            # recalls every task, which still exercises the resume path.
            print("sweep finished before the kill; rerunning a full cache")

        stored = stored_entries(cache_dir)
        print("== rerun over the same cache ==", flush=True)
        rerun = subprocess.run(
            sweep_command(args.jobs, resumed, cache_dir),
            env=env,
            check=True,
            timeout=args.timeout_s,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        traffic = TRAFFIC.search(rerun.stderr)
        if traffic is None:
            raise SystemExit(f"no cache traffic line in stderr:\n{rerun.stderr}")
        print(traffic.group(0))

        failures = []
        if read_bytes(resumed) != read_bytes(baseline):
            failures.append("the rerun's --output differs from the uninterrupted run's")
        hits = int(traffic.group(1))
        if hits != stored:
            failures.append(
                f"the rerun hit {hits} entries, but the cache held {stored}"
            )
        if failures:
            for failure in failures:
                print(f"MISMATCH: {failure}")
            raise SystemExit(1)
        total = int(traffic.group(2))
        print(
            f"resume OK: {total} tasks byte-identical "
            f"({hits} recalled from the cache, {total - hits} rerun)"
        )


if __name__ == "__main__":
    main()
