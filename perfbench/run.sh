#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it runs in, then
# runs it. From the repository root:
#
#   bash perfbench/run.sh --workload ref-similar --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays in $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build cache, the
# binary, the durable tier's temp directories and the span files.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the sources to benchmark are not here" >&2
	exit 2
fi
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --scratch "$out" "$@"
