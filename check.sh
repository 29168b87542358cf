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

echo "== asm lint (internal/tensor/*_amd64.s: VEX encodings only — no legacy-SSE instruction may name an X register, since one after a 256-bit op stalls on the upper-state transition — and VZEROUPPER before every RET of a function that touches a Y register)"
awk '
	function flush(   i) {
		if (fn != "" && usesY)
			for (i = 1; i <= nret; i++)
				if (!retok[i]) {
					print retat[i] ": " fn " uses a Y register but returns without VZEROUPPER"
					bad = 1
				}
		fn = ""; usesY = 0; nret = 0; prev = ""
	}
	FNR == 1 { flush() }
	{
		line = $0
		sub(/\/\/.*/, "", line)
		sub(/\\[ \t]*$/, "", line)
		sub(/^[ \t]*#define[ \t]+[A-Za-z0-9_]+(\([^)]*\))?/, "", line)
		if (line ~ /^[ \t]*#/) next
		n = split(line, stmts, ";")
		for (i = 1; i <= n; i++) {
			s = stmts[i]
			gsub(/^[ \t]+|[ \t]+$/, "", s)
			if (s == "" || s ~ /^[A-Za-z0-9_]+:$/) continue
			op = s; sub(/[ \t(].*/, "", op)
			args = substr(s, length(op) + 1)
			if (op == "TEXT") { flush(); fn = args; sub(/\(SB\).*/, "", fn); sub(/^[ \t]*/, "", fn); continue }
			if (args ~ /(^|[^A-Za-z0-9_])Y([0-9]|1[0-5])([^0-9]|$)/) usesY = 1
			if (op !~ /^V/ && args ~ /(^|[^A-Za-z0-9_])X([0-9]|1[0-5])([^0-9]|$)/) {
				print FILENAME ":" FNR ": legacy-SSE " op " names an X register (use the VEX form)"
				bad = 1
			}
			if (op == "RET") { nret++; retok[nret] = (prev == "VZEROUPPER"); retat[nret] = FILENAME ":" FNR }
			prev = op
		}
	}
	END { flush(); exit bad }
' internal/tensor/*_amd64.s

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== noasm fallback (pure-Go kernels must build, pass the same suite and vet clean)"
go build -tags noasm ./...
go test -tags noasm ./internal/tensor/... ./internal/nn/... ./internal/nas/... ./internal/fed/... ./internal/search/... ./internal/baselines/...
go vet -tags noasm ./internal/tensor/... ./internal/nn/...
# The nn/nas benches run the portable go-lanes4 kernels here, the code an
# arm64 participant runs: 1 iteration, catches crashes/regressed shapes.
go test -tags noasm -run '^$' -bench . -benchtime 1x ./internal/nn/... ./internal/nas/...

echo "== cross-compile arm64 (no amd64 assembly may leak outside its build tags; the kernel packages are vetted under it too)"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor/... ./internal/nn/...

echo "== go test -race (tensor, parallel, nn, nas, fed, round, search, baselines, rpcfed, telemetry, cohort, serve, scenario)"
go test -race ./internal/tensor/... ./internal/parallel/... ./internal/nn/... ./internal/nas/... \
	./internal/fed/... ./internal/round/... ./internal/search/... ./internal/baselines/... \
	./internal/rpcfed/... ./internal/telemetry/... ./internal/cohort/... \
	./internal/serve/... ./internal/scenario/...

echo "== reuse under failure (-race, 10 runs: a reply buffer written after its call was abandoned, or recycled before it was encoded, races or moves a result)"
go test -race -count=10 -run 'TestLateAnswerIntoAbandonedReplyLeavesLaterRoundsIntact|TestReplyGradsRecycledOnlyAfterEncode|TestConcurrentTrainRepliesMatchSerial' ./internal/rpcfed/

echo "== fedcheck (arena resets, op-scoped arena releases — an op's lane plans and scratch when it returns, a cell edge's backward once its input gradient is added into a state's —, the next Exchange and snapshot eviction poison what they release: a buffer read past its lifetime fails loudly; tensor tests the arena's own poisoning and tensor.Resize's, fed that a batch refill at any size writes every element it hands out; serve covers the dispatcher's reuse of model scratch; a FixedModel's folded forward panics when its parameters or batch-norm statistics moved since the fold)"
go test -tags fedcheck ./internal/tensor/... ./internal/nn/... ./internal/nas/... ./internal/fed/... ./internal/round/... ./internal/search/... ./internal/rpcfed/... ./internal/serve/...

echo "== fuzz the infer body (10 s from FuzzInferBody's seed corpus: every body a served model's infer route gets must answer 200 or 400, and none may panic the dispatcher)"
go test -run '^$' -fuzz '^FuzzInferBody$' -fuzztime 10s ./internal/serve/

echo "== bench smoke (tensor, nn kernels, nas participant steps; 1 iteration, catches crashes/regressed shapes)"
go test -run '^$' -bench . -benchtime 1x ./internal/tensor/... ./internal/nn/... ./internal/nas/...

echo "== repo benchmark smoke (the three workloads the round core serves, and serve, whose every 50th response must equal a standalone Forward bit for bit; at 1/50 size, each one's repeatability and accuracy checks must hold)"
for w in pipeline softsync rpc serve; do
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

echo "== examples (the two that build search.DefaultConfig and rpcfed.DefaultServerConfig must run to a zero exit)"
go run ./examples/quickstart
go run ./examples/distributed

echo "== fedrpc two-process smoke + fedtrace (2 traced worker processes on loopback, 2 server rounds against them, then 2 untraced -wire fp32 rounds against the same workers; both must exit 0 with a genotype, and every span must stitch across the three trace files)"
rpcdir=$(mktemp -d)
trap 'rm -rf "$rpcdir"' EXIT
./fedrpc_smoke.sh "$rpcdir"

echo "OK"
