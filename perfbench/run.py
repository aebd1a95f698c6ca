#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload hit|miss --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark executable is built with
dune into the checkout's `_build`; temporary files (the native backend's
emitted C and shared objects) and traces go under `.bench_build/`.  The
last line of standard output is the result object printed by
`perfbench/bench.ml`.
"""

import argparse
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SCRATCH = ".bench_build"


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["hit", "miss"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the root of a full checkout (missing %s)" % need)
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")

    tmp = os.path.abspath(os.path.join(SCRATCH, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")

    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        trace = os.path.join(SCRATCH, "trace-%s-%d.json" % (args.workload, args.seed))
        cmd += ["--trace-file", trace]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
