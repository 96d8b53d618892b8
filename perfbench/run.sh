#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh spread --workload live --runs 10
# Everything the build and the runs write stays under .perfbench/.
set -euo pipefail

root=$(pwd)
work="$root/.perfbench"
mkdir -p "$work/gocache" "$work/gotmp" "$work/bin"

export GOCACHE="$work/gocache"
export GOTMPDIR="$work/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=
export GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$work/bin/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$work/bin/perfbench" "$@"
