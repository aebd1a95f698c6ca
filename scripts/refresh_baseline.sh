#!/bin/sh
# Re-record the committed regression baseline (BENCH_baseline.json).
#
# The file groups one member per schema, like BENCH_results.json:
#   dynamic  nullelim-dynamic/1  per-site dynamic check counts
#   tiered   nullelim-tiered/1   steady-state checks + promotion/deopt
#                                counters (sync mode, reduced smoke
#                                settings -- must match the CI step)
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
rm -f BENCH_baseline.json
dune exec bin/main.exe -- profile \
  --out PROFILE_report.md \
  --merge BENCH_baseline.json
# reduced smoke settings: keep in sync with the CI tiered step
dune exec bin/main.exe -- tiered \
  --runs 6 --promote-calls 3 \
  --out TIERED_report.md \
  --merge BENCH_baseline.json
# reduced smoke settings: keep in sync with the CI loadgen step
dune exec bin/main.exe -- loadgen \
  --jobs 2 --duration 2 --max-requests 8000 --seed 42 \
  --merge BENCH_baseline.json
echo "refreshed BENCH_baseline.json, PROFILE_report.md and TIERED_report.md"
