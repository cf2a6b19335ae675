#!/usr/bin/env bash
# Builds the itreed benchmark from the sources of this checkout and runs
# it. Run from the repository root:
#
#   bash itreebench/run.sh --workload write-small --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, data directories and trace files all
# go under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C itreebench -o "$out/itreebench" . >&2
exec "$out/itreebench" "$@"
