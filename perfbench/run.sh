#!/usr/bin/env bash
# Builds dcserved from the tree under test and the benchmark program,
# outside every timed window, then runs the benchmark with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload pool-churn --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. Every file it writes (Go build cache,
# binaries, per-run recordings and spans) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# Keep the Go toolchain's caches, settings and temporary files inside the
# checkout.
export TMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOENV=off

(cd "$bench" && go build -o "$out/dcserved" datacache/cmd/dcserved && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -dcserved "$out/dcserved" -workdir "$out" "$@"
