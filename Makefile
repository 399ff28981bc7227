# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: test race bench-vm bench-memo verify

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/core/... ./internal/campaign/... ./internal/controller/... ./internal/vm/... ./internal/kernel/...

# Step-vs-block engine comparison (ns/op per kernel + end-to-end sweeps).
# Run before and after touching internal/vm; baseline in BENCH_vm.json.
bench-vm:
	./scripts/benchvm.sh

# Prefix-memoization A/B (memoized vs plain snapshot sweep) plus the
# end-to-end determinism check; baseline in BENCH_sweep.json.
bench-memo:
	go test -run '^$$' -bench 'BenchmarkSweepMemo|BenchmarkSweepSnapshot' -benchtime 3s .
	./scripts/memocheck.sh

verify: test race
