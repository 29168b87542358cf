#!/bin/sh
# check.sh — tier-1 verification wrapper (run by `make check` and CI).
# Fails on vet findings, unformatted files, build/test failures, and data
# races in the concurrent telemetry/search/RPC paths.
set -eu
cd "$(dirname "$0")"

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt required for:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== noasm fallback (pure-Go kernels must build and pass the same suite)"
go build -tags noasm ./...
go test -tags noasm ./internal/tensor/... ./internal/nn/...

echo "== cross-compile arm64 (no amd64 assembly may leak outside its build tags)"
GOARCH=arm64 go build ./...

echo "== go test -race (tensor, parallel, nn, fed, round, search, baselines, rpcfed, telemetry, cohort, serve, scenario)"
go test -race ./internal/tensor/... ./internal/parallel/... ./internal/nn/... \
	./internal/fed/... ./internal/round/... ./internal/search/... ./internal/baselines/... \
	./internal/rpcfed/... ./internal/telemetry/... ./internal/cohort/... \
	./internal/serve/... ./internal/scenario/...

echo "== bench smoke (tensor, nn kernels; 1 iteration, catches crashes/regressed shapes)"
go test -run '^$' -bench . -benchtime 1x ./internal/tensor/... ./internal/nn/...

echo "== repo benchmark smoke (the three workloads the round core serves, at 1/50 size; each one's repeatability and accuracy checks must hold)"
for w in pipeline softsync rpc; do
	bench_last=$(bash bench/run.sh --workload "$w" --smoke | tail -n 1)
	case "$bench_last" in
	*'"correct":true'*) ;;
	*)
		echo "bench/run.sh --workload $w --smoke did not end with \"correct\":true:" >&2
		echo "$bench_last" >&2
		exit 1
		;;
	esac
done

echo "== benchrpc smoke (1 round over loopback per encoding; fails on theta-hash mismatch)"
go run ./cmd/benchrpc -k 2 -rounds 1 -out ""

echo "== chaos smoke (kill 1 participant at round 2, resurrect at round 5; fixed seed)"
go run ./cmd/benchchaos -out "" -k 3 -rounds 10 -kill 1 -kill-after 2 -recover-after 5 \
	-round-timeout 300ms -call-timeout 200ms >/dev/null

echo "== benchscale smoke (K=1000 enrolled, cohort 8, 2 rounds; gates on memory bound + shard bit-identity)"
go vet ./cmd/benchscale
go run ./cmd/benchscale -out "" -enrolled 1000 -cohort 8 -warmup 1 -rounds 2 \
	-shards 1,4 -max-round-ratio 10 -max-bytes-ratio 10 >/dev/null

echo "== benchserve smoke (1 background job, batched inference, drain; speedup gate off, 256 requests so the window spans ~20 job rounds)"
go vet ./cmd/benchserve ./cmd/fedserve
go run ./cmd/benchserve -out "" -clients 4 -requests 64 -batches 1,4 -min-speedup 0 >/dev/null

echo "== benchprofiles smoke (1 round per catalog profile + mixed population; pin gate on, A/B gate off)"
go vet ./cmd/benchprofiles
go run ./cmd/benchprofiles -out "" -k 4 -warmup 1 -search 1 -gate=false >/dev/null

echo "== fedtrace smoke (traced K=4 run; every span must stitch, zero orphans)"
go vet ./cmd/fedtrace
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/benchrpc -k 4 -rounds 2 -modes fp64 -out "" -trace-dir "$tracedir" >/dev/null
go run ./cmd/fedtrace -min-rounds 1 "$tracedir"/*.jsonl

echo "OK"
