#!/bin/sh
# Tier-2 verification gate: build, standard vet, the repo-specific caer-vet
# static analysis suite, and the race-enabled test run. CI runs exactly
# this; `make check` is an alias.
set -eux

go build ./...
go vet ./...
# caer-vet with suppression hygiene on (stale //caer:allow comments are
# findings in CI) and a wall-clock budget: the analysis suite must stay
# cheap enough to run on every push (CAER_VET_BUDGET seconds, default 120).
vet_start=$(date +%s)
go run ./cmd/caer-vet -unused-suppressions ./...
vet_elapsed=$(( $(date +%s) - vet_start ))
echo "caer-vet runtime: ${vet_elapsed}s (budget ${CAER_VET_BUDGET:-120}s)"
[ "$vet_elapsed" -le "${CAER_VET_BUDGET:-120}" ] || {
    echo "caer-vet budget: ${vet_elapsed}s exceeds CAER_VET_BUDGET=${CAER_VET_BUDGET:-120}s" >&2; exit 1; }
# -timeout: the experiments race suite (regime suites + SLO battery) runs
# past the 600s per-binary default.
go test -race -timeout 30m -coverprofile=coverage.out ./...
# Coverage ratchet: total statement coverage must not fall below
# CAER_COVERAGE_MIN (default 80.3, one point under the measured baseline —
# raise it as coverage grows, never lower it to absorb a regression).
total=$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
awk -v t="$total" -v min="${CAER_COVERAGE_MIN:-80.3}" 'BEGIN { exit !(t+0 >= min+0) }' || {
    echo "coverage gate: total $total% below CAER_COVERAGE_MIN=${CAER_COVERAGE_MIN:-80.3}%" >&2; exit 1; }
# Fuzz smoke: run each parser fuzz target briefly so the checked-in seed
# corpus and any new corpus entries actually execute against the invariants
# (go's fuzzer accepts one target per invocation).
go test -run='^$' -fuzz='^FuzzParseText$' -fuzztime=10s ./internal/telemetry
go test -run='^$' -fuzz='^FuzzParseSeries$' -fuzztime=10s ./internal/telemetry
go test -run='^$' -fuzz='^FuzzParseChromeTrace$' -fuzztime=10s ./internal/trace
# Resize-path fuzz smoke: random partition op sequences (lookups, fills,
# orphan/invalidate resizes, back-invalidations) against the model checker
# in cache_test — fills stay inside the owner's mask, counts balance, and
# every resident line stays hittable.
go test -run='^$' -fuzz='^FuzzCachePartition$' -fuzztime=10s ./internal/mem
# Shm header fuzz smoke: every header OpenShmTable accepts describes a
# table CreateShmTable would build (no zero or overflowing geometry).
go test -run='^$' -fuzz='^FuzzParseShmHeader$' -fuzztime=10s ./internal/comm
# Regime gates (experiments.Regimes; EXPERIMENTS.md maps each suite to its
# claim) in short mode, twice: every suite must hold its gate at workers 1
# and 4, and every artifact (BENCH_*.json plus the slo suite's SLO_*.json
# doctor bundle) must be byte-identical across the two (the determinism
# contract). The workers-1 run also leaves the telemetry snapshot.
rm -rf suites.w1 suites.w4
go run ./cmd/caer-bench -suite all -quick -workers 1 -csv suites.w1 \
    -telemetry-out suites.w1/TELEMETRY_snapshot.txt > /dev/null
go run ./cmd/caer-bench -suite all -quick -workers 4 -csv suites.w4 > /dev/null
for f in suites.w1/*.json; do
    cmp "$f" "suites.w4/${f#suites.w1/}"
done
# Doctor smoke: the offline replay over the bundle must name the seeded
# violation class and count all three episodes.
go run ./cmd/caer-doctor -dir suites.w1 > DOCTOR_out.txt
grep -q "degraded-budget firing" DOCTOR_out.txt || {
    echo "doctor smoke: seeded degraded-budget violation not named" >&2; exit 1; }
grep -q "diagnosis: 3 SLO violation" DOCTOR_out.txt || {
    echo "doctor smoke: expected 3 diagnosed violations" >&2; exit 1; }
rm -f DOCTOR_out.txt
# Telemetry smoke: the run must leave a Prometheus snapshot whose core
# metric families are present and non-empty.
for fam in caer_pmu_reads_total caer_comm_publishes_total \
           caer_engine_ticks_total caer_engine_verdicts_total \
           caer_sched_admissions_total caer_telemetry_ops_total; do
    grep -q "^$fam" suites.w1/TELEMETRY_snapshot.txt || {
        echo "telemetry smoke: metric family $fam missing" >&2; exit 1; }
    awk -v fam="$fam" '$1 ~ "^"fam"($|{)" { sum += $NF } END { exit !(sum > 0) }' \
        suites.w1/TELEMETRY_snapshot.txt || {
        echo "telemetry smoke: metric family $fam is empty" >&2; exit 1; }
done
rm -rf suites.w1 suites.w4
