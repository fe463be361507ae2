#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload replay-ntt-64 --seed 1 --seconds 20 --trace 0

The Go program in perfbench/ is built from source into .bench_build/, with
its Go build cache and temporary files there too, and then run with the
given arguments from the repository root. The last line of its standard
output is the one-line JSON result; build output goes to standard error.
`--workload all` runs every workload in BENCHMARK.json in turn, each in its
own process, and prints each one's result.
"""

import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        XDG_CONFIG_HOME=os.path.join(build, "config"),  # go's telemetry counters
        CGO_ENABLED="0",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"], os.path.dirname(binary)):
        os.makedirs(d, exist_ok=True)
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args and args.index("--workload") + 1 < len(args) \
            and args[args.index("--workload") + 1] == "all":
        at = args.index("--workload") + 1
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        runs = [args[:at] + [name] + args[at + 1:] for name in names]
    status = 0
    for run_args in runs:
        try:
            ran = subprocess.run([binary] + run_args, cwd=root, timeout=RUN_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: run failed: {err}", file=sys.stderr)
            return 1
        status = status or ran.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
