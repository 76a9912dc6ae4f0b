#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:  bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
/*) ;;
*) target="$root/$target" ;;
esac
out="$target/perfbench"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
