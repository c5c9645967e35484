#!/usr/bin/env bash
# Builds the stack benchmark from source into .bench_build/ at the root of
# the checkout and runs it with the given arguments:
#
#   bash stackbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/, so a
# run reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

commit=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/stackbench" .)
cd "$root"
exec "$out/stackbench" "$@"
