# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: test race bench-memo verify

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/core/... ./internal/campaign/... ./internal/controller/... ./internal/vm/... ./internal/kernel/...

# Prefix-memoization A/B (memoized vs plain snapshot sweep) plus the
# end-to-end determinism check; baseline in BENCH_sweep.json.
bench-memo:
	go test -run '^$$' -bench 'BenchmarkSweepMemo|BenchmarkSweepSnapshot' -benchtime 3s .
	./scripts/memocheck.sh

verify: test race
