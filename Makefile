# Tier-1 targets. `make check` is the PR gate: vet + gofmt + build + tests
# + race detector over the concurrent paths (GEMM kernel, parallel engine,
# trainers, telemetry, RPC) + a 1-iteration bench smoke over the tensor/nn
# kernels + a smoke of the repo benchmark's pipeline, softsync and rpc
# workloads (their output checks must pass) + a 1-round wire-protocol
# smoke + a chaos smoke (one participant killed and resurrected mid-run,
# fixed seed). `make bench`
# measures round throughput across worker counts and writes
# BENCH_rounds.json; `make benchrpc` measures the RPC wire protocol
# across payload encodings and writes BENCH_rpc.json; `make benchchaos`
# runs the full fault-injection soak (K=8, two kills, one resurrection)
# and writes BENCH_chaos.json; `make benchscale` sweeps the enrolled
# population (10 → 10,000 at a fixed sampled cohort), gates on flat
# per-round cost and sharded-merge bit-identity, and writes
# BENCH_scale.json. `make benchserve` drives closed-loop inference clients
# against the resident serving path while a background search job trains
# in-process, sweeps the micro-batching policy (max-batch 1/8/32), gates on
# logits-checksum identity and the batch-32 QPS multiple, and writes
# BENCH_serve.json.
# `make benchprofiles` runs the scenario engine across the device-profile
# catalog plus a mixed population, gates on the empty-scenario θ pin and on
# personalized heads beating the global head under Dirichlet skew, and
# writes BENCH_profiles.json.
.PHONY: check build test race fmt bench bench-smoke benchrpc benchchaos benchscale benchserve benchprofiles fedtrace

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

bench:
	go test ./internal/tensor -run TestKernelVariantsBitIdentical -count=1
	go run ./cmd/benchrounds -out BENCH_rounds.json

benchrpc:
	go run ./cmd/benchrpc -rounds 30 -out BENCH_rpc.json

benchchaos:
	go run ./cmd/benchchaos -out BENCH_chaos.json

benchscale:
	go run ./cmd/benchscale -out BENCH_scale.json

benchserve:
	go run ./cmd/benchserve -out BENCH_serve.json

benchprofiles:
	go run ./cmd/benchprofiles -out BENCH_profiles.json

# Trace a short K=4 run into ./traces/ and print its critical-path profile.
fedtrace:
	go run ./cmd/benchrpc -k 4 -rounds 3 -modes fp64 -out "" -trace-dir traces
	go run ./cmd/fedtrace -min-rounds 3 traces/*.jsonl
