#!/usr/bin/env python3
"""Golden hash of the deterministic members of a bench report.

    scripts/bench_golden.py BENCH_results.json          # print the hash
    scripts/bench_golden.py --check BENCH_results.json  # compare with the committed one

Hashes (SHA-256) the canonical JSON (sorted keys, no whitespace) of the
`tables`, `check_stats` and `dynamic` members of a `--scale 1`
report from `bench/main.exe`.  These members are interpreter counts and
modelled cycles, so any optimizer change that alters a compiled
program changes the hash.  `--check` compares against
`scripts/bench_golden.sha256` and exits 1 on a mismatch; refresh that
file only for an intended change to the optimizer's output.
"""

import hashlib
import json
import os
import sys

MEMBERS = ("tables", "check_stats", "dynamic")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_golden.sha256")


def digest(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("scale") != 1:
        sys.exit("bench_golden: %s is not a --scale 1 report" % path)
    missing = [m for m in MEMBERS if m not in report]
    if missing:
        sys.exit("bench_golden: %s lacks %s" % (path, ", ".join(missing)))
    canon = json.dumps({m: report[m] for m in MEMBERS}, sort_keys=True,
                       separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def main(argv):
    if len(argv) == 2:
        print(digest(argv[1]))
        return 0
    if len(argv) == 3 and argv[1] == "--check":
        got = digest(argv[2])
        with open(GOLDEN) as f:
            want = f.read().split()[0]
        if got != want:
            print("bench_golden: %s hashes to %s, committed golden is %s"
                  % (argv[2], got, want), file=sys.stderr)
            return 1
        print("bench_golden: %s matches %s" % (argv[2], want))
        return 0
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
