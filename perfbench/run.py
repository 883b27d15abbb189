#!/usr/bin/env python3
"""Run one benchmark workload from the repository root.

    python3 perfbench/run.py --workload campaign|fuzz|serve|fabric \
        --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/pb.exe) and the serve daemon
(bin/campaign_cli.exe) from source with dune, then runs the workload.
Build output goes to stderr; the workload's report goes to stdout, and
its last line is the JSON result. Every process the run starts is
stopped before this script exits.
"""

import os
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "pb.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def reap_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (no dune-project or lib/ here)")
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/pb.exe", "./bin/campaign_cli.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode)
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        fail("workload timed out", 124)
    reap_group(proc.pid)
    sys.exit(rc)


if __name__ == "__main__":
    main()
