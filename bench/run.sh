#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments. Run it from the root:
#
#   bash bench/run.sh --workload convert-cold --seed 1 --seconds 28 --trace 0
#   bash bench/run.sh run -seed 1 -out res.json
#
# The build cache, temporary files and binary stay inside .bench_build/,
# and the toolchain is kept offline: the module needs nothing beyond the
# standard library and the repository itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
