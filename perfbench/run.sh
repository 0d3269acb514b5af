#!/usr/bin/env bash
# Builds the perfbench program from the source tree and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-step --seed 42 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all
#
# Every cache, binary and temporary file lives under .bench_build/ in the
# current directory, so a run reads and writes nothing else (beyond the Go
# toolchain itself).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lfscd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/lfscd and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --root "$root" --work "$out" "$@"
