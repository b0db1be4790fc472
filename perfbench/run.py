#!/usr/bin/env python3
"""Build and run the datalog_serve benchmark from the root of a checkout.

    python3 perfbench/run.py --workload point_query --seed 1 --seconds 15 --trace 0

Builds perfbench/serve_bench.exe and bin/datalog_serve.exe with dune, then
runs one workload.  The last line of standard output is the JSON result
(see perfbench/README.md); the human summary goes to standard error.  The
benchmark runs in its own process group, which is killed if it outlives
its time limit, and its temp directory (.perfbench/) is removed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["point_query", "ingest_query", "bulk_load"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "bin/datalog_serve.ml", "lib", "perfbench/dune"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def stop_group(proc):
    """Terminate the benchmark's process group and wait for it."""
    for sig, grace in ((signal.SIGTERM, 5), (signal.SIGKILL, 5)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=grace)
            return
        except subprocess.TimeoutExpired:
            continue


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("run from the root of a source checkout; missing: " + ", ".join(missing), 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/serve_bench.exe",
             "./bin/datalog_serve.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")

    tmp = os.path.join(".perfbench", str(os.getpid()))
    cmd = ["./_build/default/perfbench/serve_bench.exe",
           "--server", "./_build/default/bin/datalog_serve.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass
    if proc.returncode != 0:
        fail(f"{args.workload} failed (exit {proc.returncode})")
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
