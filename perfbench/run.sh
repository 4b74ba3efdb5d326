#!/usr/bin/env bash
# Builds transfusiond and the benchmark binary from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-search --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, daemon logs, store directories and span
# traces all go under $CARGO_TARGET_DIR (default .bench_build), so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/transfusiond || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a transfusion checkout" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/transfusiond" ./cmd/transfusiond >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

commit=unknown
if [[ -d .git ]]; then commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"; fi
exec "$out/perfbench" -daemon "$out/transfusiond" -workdir "$out" -commit "$commit" "$@"
