#!/usr/bin/env bash
# Builds the awbench benchmark and the awserved daemon from this checkout,
# then runs one workload (or all of them):
#
#   bash awbench/run.sh --workload day-64-distinct --seed 1 --seconds 20 --trace 0
#   bash awbench/run.sh --workload all
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=.bench_build/awbench
mkdir -p "$out/tmp"
export GOCACHE="$root/$out/gocache" GOTMPDIR="$root/$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/awserved" ./cmd/awserved >&2
(cd awbench && go build -o "../$out/awbench" .) >&2
commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git rev-parse HEAD)
fi
exec "$out/awbench" -awserved "$out/awserved" -out "$out" -commit "$commit" "$@"
