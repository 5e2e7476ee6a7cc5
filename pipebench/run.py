#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run it.

Usage, from the repository root:

    python3 pipebench/run.py --workload fig6-full --seed 1 --seconds 20 --trace 0

Everything the build and the run leave behind stays in .bench_build/
at the repository root: the Go build cache, the binary, temporary
store directories and span files. The benchmark itself is the Go
program in this directory (see main.go); this script only builds it
and hands it the arguments.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    binary = os.path.join(BUILD, "pipebench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("pipebench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
