#!/bin/bash
# The benchmark's entry point for the driver (BENCHMARK.json's command):
# build the bench module from source inside the checkout, then run it with
# the arguments given. Everything the toolchain and the run write — build
# cache, module cache, telemetry, results — stays under bench/.build and
# bench/out.
set -eu
cd "$(dirname "$0")"
mkdir -p .build/home
export HOME="$PWD/.build/home" XDG_CONFIG_HOME="$PWD/.build/home/.config"
export GOCACHE="$PWD/.build/gocache" GOPATH="$PWD/.build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
go build -o .build/bench .
exec .build/bench "$@"
