#!/bin/sh
# fedrpc_smoke.sh DIR — two-process wire-protocol smoke with stitched traces.
# Starts two traced `fedrpc worker` processes on loopback (ports picked by the
# kernel, parsed from their "serving … on ADDR" line), runs a 2-round traced
# `fedrpc server` against them, then a 2-round untraced `fedrpc server -wire
# fp32` against the same workers, stops the workers, then runs fedtrace over
# the three trace files. Fails unless both servers exit 0 with a genotype and
# every span stitches across the processes. Traces and logs stay in DIR.
set -eu
mkdir -p "${1:?usage: fedrpc_smoke.sh DIR}"
dir=$(cd "$1" && pwd)
cd "$(dirname "$0")"
workers=""
trap 'kill $workers 2>/dev/null || true' EXIT
go build -o "$dir/fedrpc" ./cmd/fedrpc
go build -o "$dir/fedtrace" ./cmd/fedtrace
for i in 0 1; do
	"$dir/fedrpc" worker -index "$i" -k 2 -listen 127.0.0.1:0 -trace "$dir/worker$i.jsonl" >"$dir/worker$i.log" 2>&1 &
	workers="$workers $!"
done
addrs=""
for i in 0 1; do
	tries=0
	until grep -q ' serving ' "$dir/worker$i.log"; do
		tries=$((tries + 1))
		if [ "$tries" -gt 300 ]; then
			echo "fedrpc worker $i did not start:" >&2
			cat "$dir/worker$i.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$dir/worker$i.log")
	addrs="${addrs:+$addrs,}$addr"
done
if ! "$dir/fedrpc" server -addrs "$addrs" -rounds 2 -batch 8 -trace "$dir/server.jsonl" >"$dir/server.log" 2>&1 ||
	! grep -q '^genotype:' "$dir/server.log"; then
	echo "fedrpc server against two worker processes failed:" >&2
	cat "$dir/server.log" >&2
	exit 1
fi
# The one lossy wire mode, across the same real processes.
if ! "$dir/fedrpc" server -addrs "$addrs" -rounds 2 -batch 8 -wire fp32 >"$dir/server-fp32.log" 2>&1 ||
	! grep -q '^genotype:' "$dir/server-fp32.log"; then
	echo "fedrpc server -wire fp32 against two worker processes failed:" >&2
	cat "$dir/server-fp32.log" >&2
	exit 1
fi
# Workers serve until killed; stop them so their traces are complete.
kill $workers 2>/dev/null || true
wait $workers 2>/dev/null || true
workers=""
"$dir/fedtrace" -min-rounds 1 "$dir/server.jsonl" "$dir/worker0.jsonl" "$dir/worker1.jsonl"
