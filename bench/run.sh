#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# run from the repository root. The last line of stdout is one JSON object
# with the run's metrics; progress and a metric table go to stderr. Build
# outputs, the Go build cache, scratch stores and traces all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

# Keep the go command's cache, module and config lookups inside the build
# directory, and never reach for the network: the module has no
# dependencies outside the repository.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/zen2ee-bench" .) >&2
exec "$build/zen2ee-bench" drive -workdir "$build/work" "$@"
