#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oltp-zipf --seed 1 --seconds 10 --trace 0

The benchmark is a Go program in this directory (its own module, which
uses the engine packages of the repository it sits in). This script builds
it with every Go cache and temporary directory inside .bench_build/ of the
current directory, then runs it with the given arguments. Its standard
output is the program's: one line per metric, then one JSON result line.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build")
    out_dir = os.path.join(build_dir, "perfbench")
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        env[key] = os.path.join(build_dir, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOPROXY="off", GOFLAGS="-mod=readonly", GOENV="off")
    os.makedirs(out_dir, exist_ok=True)

    binary = os.path.join(out_dir, "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    build = subprocess.run(["go", "build", "-o", tmp, "."], cwd=bench_dir, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + build.stdout)
        return 1
    os.replace(tmp, binary)
    return subprocess.run([binary, "-out", out_dir] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
