# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: test race bench-memo verify

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/core/... ./internal/campaign/... ./internal/controller/... ./internal/vm/... ./internal/kernel/...

# Prefix-memoization A/B (memoized vs plain snapshot sweep); baseline in
# BENCH_sweep.json. Memo determinism is checked by TestSweepMemoIdentical.
bench-memo:
	go test -run '^$$' -bench 'BenchmarkSweepMemo|BenchmarkSweepSnapshot' -benchtime 3s .

verify: test race
