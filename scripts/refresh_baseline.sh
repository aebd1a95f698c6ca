#!/bin/sh
# Re-record the committed regression baseline (BENCH_baseline.json).
#
# The file groups one member per schema, like BENCH_results.json:
#   dynamic  nullelim-dynamic/1  per-site dynamic check counts
#   tiered   nullelim-tiered/1   steady-state checks + promotion/deopt
#                                counters (sync mode, the reduced smoke
#                                settings of scripts/smoke_flags.sh)
#   loadgen  nullelim-loadgen/1  open-loop rate sweep; the gated member
#                                is normalized_p99 (lowest-rate p99 /
#                                mean compile time), compared at 3x --
#                                machine-speed-independent, but refresh
#                                on a machine that is not heavily loaded
#
# Run after an intentional optimizer or tiering-policy change shifts
# the deterministic counters; commit the refreshed file with the change
# that caused it.  CI fails when a workload x config executes more
# dynamic null checks than recorded, when a steady state regresses,
# when the promotion/deopt counters drift at all, or when the loadgen
# normalized p99 exceeds 3x the recorded value.
set -e
cd "$(dirname "$0")/.."
. scripts/smoke_flags.sh
rm -f BENCH_baseline.json
dune exec bin/main.exe -- profile \
  --out PROFILE_report.md \
  --merge BENCH_baseline.json
dune exec bin/main.exe -- tiered $TIERED_SMOKE_FLAGS \
  --out TIERED_report.md \
  --merge BENCH_baseline.json
# One run's normalized p99 lands anywhere in a wide spread (7.5-20.6
# over seven runs of one build), so the loadgen step runs seven times
# and the run with the median normalized p99 becomes the member.
runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT
for i in 1 2 3 4 5 6 7; do
  dune exec bin/main.exe -- loadgen $LOADGEN_SMOKE_FLAGS \
    --out "$runs/loadgen$i.json"
done
# Merged as `--merge` would: the container is Obs_json's compact text
# and, rebuilt above, has no loadgen member yet, so the chosen run's
# document is appended verbatim before the closing brace.
python3 - "$runs" BENCH_baseline.json <<'PY'
import glob, json, sys
runs, path = sys.argv[1], sys.argv[2]
docs = sorted((json.load(open(p))["normalized_p99"], p)
              for p in glob.glob(runs + "/loadgen*.json"))
p99, median = docs[len(docs) // 2]
print("loadgen normalized p99: %s; recording %.4g"
      % (" ".join("%.4g" % d for d, _ in docs), p99))
text = open(path).read().rstrip("\n")
assert "loadgen" not in json.loads(text) and text.endswith("}")
member = open(median).read().rstrip("\n")
open(path, "w").write(text[:-1] + ',"loadgen":' + member + "}\n")
PY
dune exec bin/main.exe -- validate-json BENCH_baseline.json
echo "refreshed BENCH_baseline.json, PROFILE_report.md and TIERED_report.md"
