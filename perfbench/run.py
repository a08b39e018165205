#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

The arguments go to the benchmark executable unchanged (see
perfbench/README.md); its last line of standard output is the run's JSON
result. Build output goes to standard error. A failed build exits
nonzero without printing a result.
"""

import os
import subprocess
import sys

TARGETS = ["bin/dstool.exe", "perfbench/perfbench.exe"]


def main():
    root = os.getcwd()
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    dstool = os.path.join(root, "_build", "default", "bin", "dstool.exe")
    run = subprocess.run([exe, "--dstool", dstool] + sys.argv[1:], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
