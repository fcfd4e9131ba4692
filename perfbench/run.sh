#!/usr/bin/env bash
# Builds the sccgd daemon and the perfbench program from this checkout, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cross_cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, both binaries, the daemon's data dirs and the
# span files of traced runs.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sccgd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, cmd/sccgd and perfbench/ are needed)" >&2
	exit 2
fi

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

go build -buildvcs=false -o "$build/sccgd" ./cmd/sccgd
(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -sccgd "$build/sccgd" -workdir "$build/runs" "$@"
