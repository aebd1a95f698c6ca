#!/bin/sh
# Short traced runs of the repository benchmark (perfbench/), gating
# the code-cache key:
#   hit   the warmed cache must serve every request (cache_misses = 0):
#         the key of one job is stable across requests;
#   miss  the cache must serve none (cache_hits = 0): every freshly
#         built program mints new check sites, and the key covers them.
# The hit run also gates steady state: its warm tier-2 code must execute
# no explicit null checks (interp_explicit_checks = 0).  The miss run
# must promote (tier_promotions > 0), so a cheaper cold tiered run
# cannot come from promoting less.  Both runs print their tier-0
# compile and tiered-run times.
# Both runs must also report correct = true.
#
# Usage (from the root of a checkout, with dune on PATH):
#   scripts/perf_smoke.sh
# Each run's result object is kept in PERF_smoke_<workload>.json.
set -eu

status=0
for w in hit miss; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 1 \
    | tail -n 1 > "PERF_smoke_$w.json"
  python3 - "$w" "PERF_smoke_$w.json" <<'EOF' || status=1
import json, sys

workload, path = sys.argv[1], sys.argv[2]
with open(path) as f:
    result = json.load(f)
metrics = result["metrics"]
hits = metrics["cache_hits"]["value"]
misses = metrics["cache_misses"]["value"]
errors = []
if result["correct"] is not True:
    errors.append("correct is false (%d of %d operations failed)"
                  % (result["failed"], result["attempted"]))
if workload == "hit" and misses > 0:
    errors.append("hit reports %d cache misses: a job's key is not stable"
                  % misses)
if workload == "miss" and hits > 0:
    errors.append("miss reports %d cache hits: the key drops check sites"
                  % hits)
explicit = metrics["interp_explicit_checks"]["value"]
if workload == "hit" and explicit != 0:
    errors.append("hit executed %d explicit null checks in warm tier-2 code"
                  % explicit)
promotions = metrics["tier_promotions"]["value"]
if workload == "miss" and promotions == 0:
    errors.append("miss promoted nothing: tier_promotions is 0")
print("%s: correct=%s cache_hits=%d cache_misses=%d explicit_checks=%d "
      "tier_promotions=%g tier_tier0_compile_ms=%.4f tier_run_ms=%.4f"
      % (workload, result["correct"], hits, misses, explicit, promotions,
         metrics["tier_tier0_compile_ms"]["value"],
         metrics["tier_run_ms"]["value"]))
for e in errors:
    print("perf smoke (%s): %s" % (workload, e), file=sys.stderr)
sys.exit(1 if errors else 0)
EOF
done
exit "$status"
