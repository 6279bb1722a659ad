#!/usr/bin/env python3
"""Build and run YASMIN's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hetero --seed 1 --seconds 10 --trace 0

The benchmark is the Go package in this directory, a module of its own that
uses the repository's module through a replace directive. It is built from
source into .bench_build/ under the checkout (build cache and temporary
files included), then run with the given arguments. The exit code is the
benchmark's, or 2 when the build fails.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOTMPDIR=tmp,
               GOPROXY="off",
               GOTOOLCHAIN="local",
               GOWORK="off",
               GOFLAGS="",
               CGO_ENABLED="0")
    exe = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([exe, "--root", root, "--out", out] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
