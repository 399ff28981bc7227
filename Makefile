# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).
# `make verify` runs every gate CI runs before its focused -run steps.

.PHONY: fmt vet test race bench-module verify

fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go') | tee /dev/stderr)"

vet:
	go vet ./...

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/core/... ./internal/campaign/... ./internal/controller/... ./internal/vm/... ./internal/kernel/...

# bench/ is its own module: tier-1 neither builds nor tests it.
bench-module:
	cd bench && go vet ./... && go test -short ./...

verify: fmt vet test race bench-module
