#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh                      # "all": every workload, traced run included, one JSON document
#   benchmark/run.sh run --workload W     # any of the program's subcommands: run, all, check
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         # one run, one result line: what BENCHMARK.json's command gets
#
# Everything it writes stays in the checkout: the Go build cache, the go
# command's temporary files and telemetry counters, and the binary under
# .bench_build/; traces under benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -C benchmark -o "$build/p2bench" .

if [ "$#" -eq 0 ]; then
	set -- all
fi
exec "$build/p2bench" "$@"
