# Tier-1 targets. `make check` is the PR gate: vet + gofmt + build + tests
# + race detector over the concurrent paths (GEMM kernel, parallel engine,
# trainers, telemetry, RPC) + a 1-iteration bench smoke over the tensor/nn
# kernels + a smoke of the repo benchmark's pipeline, softsync and rpc
# workloads (their output checks must pass) + vet and tests of the separate
# bench/ module + a 2-round, two-process wire-protocol smoke whose three
# span traces must stitch under fedtrace.
# Performance is measured by the repo benchmark alone: `bash bench/run.sh`
# (see bench/README.md). `make fedtrace` reruns the traced two-process smoke
# into ./traces/ and prints its critical-path profile.
.PHONY: check build test race fmt bench-smoke fedtrace

check:
	./check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/tensor/... ./internal/parallel/... ./internal/nn/... \
		./internal/fed/... ./internal/round/... ./internal/search/... ./internal/baselines/... \
		./internal/rpcfed/... ./internal/telemetry/... ./internal/cohort/... \
		./internal/serve/... ./internal/scenario/...

bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./internal/tensor/... ./internal/nn/...

fmt:
	gofmt -w .

# Trace a 2-round run across two fedrpc worker processes and one server
# process into ./traces/ (the check.sh smoke) and print the stitched
# critical-path profile.
fedtrace:
	./fedrpc_smoke.sh traces
