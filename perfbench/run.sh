#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs and Go caches stay under
# .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config"

# The revision is recorded only when the root is itself a git work tree.
commit=unknown
if command -v git >/dev/null && [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	if commit=$(git rev-parse HEAD 2>/dev/null); then
		git diff --quiet HEAD -- 2>/dev/null || commit=$commit+modified
	else
		commit=unknown
	fi
fi

export GOCACHE=$build/go-cache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -buildvcs=false -o "$build/perfbench" . >&2
exec "$build/perfbench" -out "$build" -commit "$commit" "$@"
