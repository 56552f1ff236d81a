#!/usr/bin/env python3
"""Build the graphjs-go benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-gt --seed 1 --seconds 20 --trace 0

Every argument is passed through to the benchmark binary (see
perfbench/README.md). The Go build cache, temporary files and the
binary all live under .bench_build/ in the current directory, so a run
reads and writes nothing outside the checkout it runs in. A checkout
without the scanner's sources fails to build, and the script then exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOMODCACHE": os.path.join(build_dir, "gomodcache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": tmp_dir,
        "TMPDIR": tmp_dir,
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
