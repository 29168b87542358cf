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

echo "== bench module (vet + tests of the separate bench/ module, which compiles against this repo's API)"
(cd bench && go vet ./... && go test ./...)

echo "== fedrpc two-process smoke + fedtrace (2 traced worker processes on loopback, 2 server rounds against them; must exit 0 with a genotype, and every span must stitch across the three trace files)"
rpcdir=$(mktemp -d)
trap 'rm -rf "$rpcdir"' EXIT
./fedrpc_smoke.sh "$rpcdir"

echo "OK"
