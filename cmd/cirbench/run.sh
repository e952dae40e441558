#!/usr/bin/env bash
# Builds cmd/cirbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/cirbench/run.sh --workload analyze --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, temporary files and
# the traced run's span file.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/cirbench" ./cmd/cirbench
exec "$out/cirbench" -spans "$out/cirbench-spans.json" "$@"
