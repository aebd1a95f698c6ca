# Reduced smoke settings, sourced (`. scripts/smoke_flags.sh`) by the CI
# tiered and loadgen steps and by scripts/refresh_baseline.sh, so the
# committed baseline is recorded with the settings CI gates against.
# Expand unquoted: each is a list of flags.

# tiered: 6 runs with a promotion threshold of 3 calls
TIERED_SMOKE_FLAGS="--runs 6 --promote-calls 3"

# loadgen: each rate step offers 2 s of arrivals, capped at 8000 requests
LOADGEN_SMOKE_FLAGS="--jobs 2 --duration 2 --max-requests 8000 --seed 42"
