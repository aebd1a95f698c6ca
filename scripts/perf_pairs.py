#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark with alternating pairs.

    python3 scripts/perf_pairs.py --parent DIR --change DIR \
        [--pairs 10] [--seconds 20] [--first-seed 1]
    python3 scripts/perf_pairs.py --self-test

Pair i runs `perfbench/run.py --seed (first-seed + i)` once in each
checkout, for every workload BENCHMARK.json (read from the change
checkout) lists, with the same `--seconds` and `--trace 0` on both
sides.  The side that runs first alternates from pair to pair, so a
drift in the machine's speed lands on both sides equally.

For every workload x end-to-end metric declared in BENCHMARK.json it
prints the median and quartiles of each side, the change of the median
in %, the pairs the change won, the verdict and the metric's bound:

  improved     the change won at least 9 of 10 pairs (90%) and the
               medians differ by more than the parent's interquartile
               range, in the metric's better direction;
  regressed    the same in the worse direction;
  unresolved   neither.

`bound` is "ok" unless the change's median is worse than the parent's
by more than the bound.  Runs that exit non-zero, print no result or
report `correct: false` or failed operations are counted per side and
left out of the statistics.  Every run is printed as it finishes.

Before the runs it builds the benchmark in each checkout and prints,
from `nm`, where the code of a few hot modules (PLACED) begins in
perfbench/bench.exe on each side, flagging the modules whose code moved.
A swing on a path the change did not touch (the `hit` request path, say)
that comes with moved code is likely placement, not the change.

The script reads perfbench/ and BENCHMARK.json and writes neither.
`--self-test` checks the statistics, the pairing and the placement
report on fixed fixtures without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9
PLACED = ["Interp", "Svc", "Solver", "Liveness", "Pipeline"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def quartiles(xs):
    """(q1, median, q3) with the inclusive method (the quartiles of
    the data themselves, interpolated)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric, pairs):
    """One row for [metric] (a BENCHMARK.json end_to_end entry) over
    [pairs], a list of (parent value, change value); a side's None is a
    run that gave no value, and its pair is dropped."""
    both = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not both:
        return None
    lower = metric["better"] == "lower"
    par = [p for p, _ in both]
    chg = [c for _, c in both]
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    wins = sum(1 for p, c in both if (c < p if lower else c > p))
    losses = sum(1 for p, c in both if (c > p if lower else c < p))
    iqr = pq3 - pq1
    gap = abs(cmed - pmed)
    better = cmed < pmed if lower else cmed > pmed
    need = WIN_SHARE * len(both)
    if better and wins >= need and gap > iqr:
        verdict = "improved"
    elif not better and cmed != pmed and losses >= need and gap > iqr:
        verdict = "regressed"
    else:
        verdict = "unresolved"
    change = 100.0 * (cmed - pmed) / pmed if pmed else 0.0
    worse_by = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    bound = metric.get("bound")
    within = bound is None or not pmed or worse_by <= bound
    return {
        "metric": metric["name"],
        "n": len(both),
        "parent": (pq1, pmed, pq3),
        "change": (cq1, cmed, cq3),
        "change_pct": change,
        "wins": wins,
        "verdict": verdict,
        "bound": bound,
        "within_bound": within,
    }


def schedule(pairs, first_seed, workloads):
    """The run order: (pair, seed, workload, side) tuples, the first
    side swapped each pair."""
    order = []
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in sides:
                order.append((i, first_seed + i, w, side))
    return order


def usable(result):
    """Whether a run's result object may enter the statistics."""
    return (
        result is not None
        and result.get("correct") is True
        and result.get("failed", 0) == 0
    )


def run_one(checkout, workload, seed, seconds):
    """Run the benchmark once in [checkout]; its result object, or None."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def collect(order, runner, log=print):
    """Run [order] with [runner(side, workload, seed)]; returns
    {(workload, side): [result or None per pair]} in pair order."""
    runs = {}
    for i, seed, w, side in order:
        r = runner(side, w, seed)
        runs.setdefault((w, side), []).append(r)
        if r is None:
            desc = "no result"
        else:
            desc = " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in sorted(r["metrics"].items()))
            if not usable(r):
                desc += " (correct=%s failed=%s)" % (r.get("correct"), r.get("failed"))
        log("pair %d seed %d %-4s %-6s %s" % (i, seed, w, side, desc))
    return runs


def report(bench, runs, workloads, log=print):
    """Print the table; returns (rows, bad) where bad counts the
    unusable runs per (workload, side)."""
    rows = []
    bad = {}
    for w in workloads:
        for side in ("parent", "change"):
            bad[(w, side)] = sum(1 for r in runs.get((w, side), []) if not usable(r))

        def value(r, name):
            if not usable(r) or name not in r["metrics"]:
                return None
            return r["metrics"][name]["value"]

        for m in bench["end_to_end"]:
            pairs = [
                (value(p, m["name"]), value(c, m["name"]))
                for p, c in zip(runs.get((w, "parent"), []), runs.get((w, "change"), []))
            ]
            row = summarize(m, pairs)
            if row is not None:
                row["workload"] = w
                rows.append(row)
    log("")
    log("%-5s %-18s %3s  %-28s %-28s %8s %6s  %-10s %s" % (
        "wl", "metric", "n", "parent q1/med/q3", "change q1/med/q3",
        "change", "wins", "verdict", "bound"))
    for r in rows:
        fmt3 = lambda q: "%.4g/%.4g/%.4g" % q
        log("%-5s %-18s %3d  %-28s %-28s %+7.1f%% %3d/%-2d  %-10s %s" % (
            r["workload"], r["metric"], r["n"], fmt3(r["parent"]),
            fmt3(r["change"]), r["change_pct"], r["wins"], r["n"],
            r["verdict"],
            "ok (%g)" % r["bound"] if r["within_bound"] else "EXCEEDED (%g)" % r["bound"]))
    for (w, side), n in sorted(bad.items()):
        log("%s %s: %d incorrect or failed run(s)" % (w, side, n))
    return rows, bad


def code_begins(nm_text):
    """{module: address} of the PLACED modules' `code_begin` symbols in
    `nm` output (`camlLib__Module.code_begin`, or `__code_begin` before
    OCaml 5)."""
    found = {}
    for line in nm_text.splitlines():
        parts = line.split()
        if len(parts) != 3 or not parts[2].endswith("code_begin"):
            continue
        name = parts[2][:-len("code_begin")].rstrip("._")
        module = name.rsplit("__", 1)[-1]
        if module in PLACED:
            found[module] = int(parts[0], 16)
    return found


def placement(nm_texts, log=print):
    """Print each PLACED module's code_begin per side from
    {side: nm output}; returns the modules that moved."""
    begins = {side: code_begins(text) for side, text in nm_texts.items()}
    moved = []
    log("%-9s %18s %18s %10s" % ("module", "parent", "change", "moved by"))
    for m in PLACED:
        p, c = begins["parent"].get(m), begins["change"].get(m)
        if p is None or c is None:
            log("%-9s %18s %18s %10s" % (m, p and hex(p), c and hex(c), "?"))
            continue
        if p != c:
            moved.append(m)
        log("%-9s %#18x %#18x %10s" % (m, p, c, "%+d" % (c - p) if p != c else "-"))
    log("code placement: %s" % (
        "moved " + ", ".join(moved) if moved else "no listed module moved"))
    return moved


def build_and_nm(checkout):
    """Build the benchmark in [checkout] as perfbench/run.py does; the
    `nm` output of the executable ("" if either step fails)."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"], cwd=checkout,
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if build.returncode != 0:
        return ""
    nm = subprocess.run(["nm", os.path.join(checkout, EXE)],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return nm.stdout if nm.returncode == 0 else ""


def self_test():
    bench = {"end_to_end": [
        {"name": "t_ms", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.25},
    ]}
    order = schedule(4, 7, ["hit", "miss"])
    assert [o[3] for o in order[:8]] == [
        "parent", "change", "parent", "change",
        "change", "parent", "change", "parent"], order
    assert all(o[1] == 7 + o[0] for o in order), order

    # ten pairs: the change is ~30% faster, except in pair 9; pair 3's
    # change run is incorrect and pair 5's parent run printed nothing
    parent_t = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 0.6]
    change_t = [0.7, 0.75, 0.65, 0.7, 0.66, 0.8, 0.7, 0.69, 0.72, 0.9]

    def fake(side, w, seed):
        i = seed - 1
        if side == "parent" and i == 5:
            return None
        t = (parent_t if side == "parent" else change_t)[i]
        rate = 100.0  # equal on both sides: unresolved, within bound
        return {"correct": not (side == "change" and i == 3), "failed": 0,
                "attempted": 10,
                "metrics": {"t_ms": {"value": t}, "rate": {"value": rate}}}

    lines = []
    runs = collect(schedule(10, 1, ["hit"]), fake, log=lines.append)
    assert len(lines) == 20, lines
    rows, bad = report(bench, runs, ["hit"], log=lines.append)
    assert bad == {("hit", "parent"): 1, ("hit", "change"): 1}, bad
    t = next(r for r in rows if r["metric"] == "t_ms")
    # pairs 3 and 5 dropped: 8 pairs, the change wins 7 (not pair 9)
    assert t["n"] == 8 and t["wins"] == 7, t
    assert t["verdict"] == "unresolved", t  # 7 < 0.9 * 8
    par = [p for k, p in enumerate(parent_t) if k not in (3, 5)]
    assert abs(t["parent"][1] - statistics.median(par)) < 1e-12, t
    rate = next(r for r in rows if r["metric"] == "rate")
    assert rate["verdict"] == "unresolved" and rate["within_bound"], rate

    # every pair won and a gap wider than the parent's IQR: improved
    row = summarize(bench["end_to_end"][0], list(zip(parent_t[:9], change_t[:9])))
    assert row["wins"] == 9 and row["verdict"] == "improved", row
    assert row["within_bound"] and row["change_pct"] < -25, row
    # the mirror image: regressed, and beyond the 25% bound
    row = summarize(bench["end_to_end"][0], list(zip(change_t[:9], parent_t[:9])))
    assert row["verdict"] == "regressed" and not row["within_bound"], row
    # higher is better: a lower rate is a regression
    row = summarize(bench["end_to_end"][1], [(100.0 + k, 60.0 + k) for k in range(10)])
    assert row["verdict"] == "regressed" and not row["within_bound"], row
    # all wins but a gap inside the parent's IQR: unresolved
    row = summarize(bench["end_to_end"][0],
                    [(1.0 + 0.1 * k, 0.99 + 0.1 * k) for k in range(10)])
    assert row["wins"] == 10 and row["verdict"] == "unresolved", row

    # placement: Solver and Pipeline moved, Svc is missing on one side,
    # and a module not in PLACED (or a non-code_begin symbol) is ignored
    nm_parent = """
0000000000120b10 T camlNullelim_vm__Interp.code_begin
0000000000110fb0 T camlNullelim_svc__Svc.code_begin
00000000001396d0 T camlNullelim_dataflow__Solver.code_begin
0000000000137820 T camlNullelim_analysis__Liveness.code_begin
000000000012bf80 T camlNullelim_opt__Pipeline__code_begin
0000000000139700 T camlNullelim_dataflow__Solver.code_end
0000000000100000 T camlNullelim_opt__Phase1.code_begin
                 U memmove
"""
    nm_change = """
0000000000120b10 T camlNullelim_vm__Interp.code_begin
0000000000139a10 T camlNullelim_dataflow__Solver.code_begin
0000000000137820 T camlNullelim_analysis__Liveness.code_begin
000000000012bfc0 T camlNullelim_opt__Pipeline__code_begin
0000000000100040 T camlNullelim_opt__Phase1.code_begin
"""
    assert code_begins(nm_parent) == {
        "Interp": 0x120b10, "Svc": 0x110fb0, "Solver": 0x1396d0,
        "Liveness": 0x137820, "Pipeline": 0x12bf80}, code_begins(nm_parent)
    lines = []
    moved = placement({"parent": nm_parent, "change": nm_change}, log=lines.append)
    assert moved == ["Solver", "Pipeline"], moved
    assert lines[-1] == "code placement: moved Solver, Pipeline", lines
    assert any(l.startswith("Svc") and l.rstrip().endswith("?") for l in lines), lines
    assert any(l.startswith("Pipeline") and l.rstrip().endswith("+64") for l in lines), lines
    print("perf_pairs self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.parent or not args.change:
        ap.error("--parent and --change are required")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    placement({side: build_and_nm(path) for side, path in checkouts.items()})
    runs = collect(
        schedule(args.pairs, args.first_seed, workloads),
        lambda side, w, seed: run_one(checkouts[side], w, seed, args.seconds))
    _, bad = report(bench, runs, workloads)
    sys.exit(1 if any(bad.values()) else 0)


if __name__ == "__main__":
    main()
