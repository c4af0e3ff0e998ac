#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-scale --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
unset GOFLAGS

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
