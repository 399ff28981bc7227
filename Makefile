# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: test race verify

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/core/... ./internal/campaign/... ./internal/controller/... ./internal/vm/... ./internal/kernel/...

verify: test race
