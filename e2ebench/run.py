#!/usr/bin/env python3
"""Build the e2ebench Go program from source and run one workload.

    python3 e2ebench/run.py --workload lu64 --seed 3 --seconds 30 --trace 0

Workloads: scale512, lu64, fuzz-lossy, or all (every workload in one
process). The last line of standard output is the program's JSON summary.
Build products, including the Go build cache, stay in .bench_build/ at the
repository root. So do the CPU profiles of a traced run, which the program
decodes with `go tool pprof` and removes.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def go_env():
    """The environment for the go command, confined to the build directory."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        HOME=os.path.join(BUILD, "home"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at %s; run from a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "e2ebench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: go build: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: go build failed", file=sys.stderr)
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed % (1 << 64)),
           "-seconds", repr(args.seconds), "-trace", str(args.trace), "-root", ROOT]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=go_env(), timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
