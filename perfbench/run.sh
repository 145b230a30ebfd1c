#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, the binary,
# and the result and span files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
# The benchmark is defined on the default kernel chain and profile.
unset MOBILSTM_KERNEL_CHAIN MOBILSTM_FULL GOMAXPROCS

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
