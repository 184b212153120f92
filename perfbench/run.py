#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload agreement --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into the build directory
($CARGO_TARGET_DIR if set, else .bench_build), which also holds the Go
build cache, and then replaces this process with the given arguments. The
spans of a traced run are written to <build dir>/trace-<workload>.jsonl.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    os.makedirs(build, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    workload = "run"
    for i, a in enumerate(args[:-1]):
        if a in ("--workload", "-workload"):
            workload = os.path.basename(args[i + 1])
    if not any(a.lstrip("-").startswith("trace-out") for a in args):
        args += ["--trace-out", os.path.join(build, "trace-%s.jsonl" % workload)]
    sys.stdout.flush()
    os.execve(exe, [exe] + args, env)


if __name__ == "__main__":
    sys.exit(main())
