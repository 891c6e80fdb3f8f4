#!/usr/bin/env python3
"""Build and run the GRP benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds
perfbench/grpbench.exe with dune (build output goes to stderr), then runs
it with the same arguments.  The benchmark prints its tables and, as the
last line of standard output, one JSON result object.  The exit code is
non-zero when the build fails, an output check fails or the run exceeds
its time limit.  Workloads and metrics: perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
# A run measures for --seconds; the margin covers its first pass over the
# fixed work and, with --trace 1, the traced and one-domain reruns.
RUN_MARGIN_S = 140
EXE = os.path.join("_build", "default", "perfbench", "grpbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run from the root of a source checkout\n")
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("run.py: dune is not on PATH\n")
        return 2
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/grpbench.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: build timed out\n")
        return 1
    if build.returncode != 0:
        return build.returncode
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seconds", type=float, default=30.0)
    seconds = parser.parse_known_args()[0].seconds
    try:
        return subprocess.run(
            [EXE] + sys.argv[1:], timeout=seconds + RUN_MARGIN_S
        ).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
