# Tier-1: the fast correctness gate (what every PR must keep green).
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier-2: build + go vet + repo-specific static analysis + race tests.
.PHONY: check
check:
	./check.sh

# Run only the repo-specific analyzers (suppression hygiene on, as in CI).
.PHONY: vet
vet:
	go run ./cmd/caer-vet -unused-suppressions ./...

# Machine-readable findings (the caer-vet -json contract; CI uploads this).
.PHONY: vet-json
vet-json:
	go run ./cmd/caer-vet -unused-suppressions -json ./...

.PHONY: bench
bench:
	go test -bench=. -benchmem ./...

# Every regime suite at full scale (experiments.Regimes; writes
# BENCH_<name>.json for each, plus the slo suite's caer-doctor bundle).
.PHONY: suites
suites:
	go run ./cmd/caer-bench -suite all
