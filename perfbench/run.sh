#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload lar-sync --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --steadiness 5 --workload dense-delta --seconds 30
#
# Run it from the root of the repository. Everything the build and the run
# write (Go build cache, binary, span files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT="$commit"

go -C "$root/perfbench" build -trimpath -buildvcs=false -o "$out/perfbench" . 1>&2
exec "$out/perfbench" "$@"
