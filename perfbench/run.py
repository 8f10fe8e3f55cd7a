#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload search-warm --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py compare --bounds BENCHMARK.json parent.jsonl change.jsonl

The Go build cache, module cache and binary live in .bench_build/ at the
root, so nothing is read or written outside the checkout. Build output goes
to standard error; the benchmark's last line of standard output is its
result. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left running.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
