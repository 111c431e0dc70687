#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#
#   bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files go under .bench_build/ there; nothing is written elsewhere.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
