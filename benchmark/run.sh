#!/usr/bin/env bash
# Builds the benchmark once and runs it with GOMAXPROCS pinned to 2.
#
#   bash benchmark/run.sh                      the whole suite: untraced, then
#                                              traced, into benchmark/out/
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                              one pass of one workload (the
#                                              driver's contract)
#   bash benchmark/run.sh -compare a.json b.json | -selfcheck | ...
#
# Everything the build and the runs write stays inside the checkout: the Go
# build and module caches, temporary files and the binary under .bench_build/,
# results and trace files under -out. Scratch WAL and replica directories are
# created under -out and removed on exit, also after a failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
export GOMAXPROCS=2

(cd "$here" && go build -o "$build/qotp-benchmark" .)

cd "$root"
if [ "$#" -eq 0 ]; then
	set -- -all -out benchmark/out
fi
status=0
"$build/qotp-benchmark" "$@" || status=$?
# The program removes its own scratch directories; this catches a killed run.
rm -rf .bench_build/out/scratch-* benchmark/out/scratch-*
exit "$status"
