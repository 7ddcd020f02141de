#!/usr/bin/env bash
# Builds the wire-to-verdict benchmark from source and runs it, passing
# every argument on. Run from the repository root:
#
#   bash wirebench/run.sh --workload fleet --seed 1 --seconds 15 --trace 0
#
# Build cache, binary and run files all stay under wirebench/.work.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$here/.work"
mkdir -p "$work"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" \
	GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" XDG_CACHE_HOME="$work/cache"
(cd "$here" && go build -o "$work/bin/wirebench" .)
exec "$work/bin/wirebench" --work "$work/run" "$@"
