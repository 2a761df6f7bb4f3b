#!/usr/bin/env bash
# Builds the benchmark from source into bench/out/build/ (Go's build
# cache, module cache and temp files stay there too, so nothing is written
# outside the checkout) and runs it with the given arguments. The command
# BENCHMARK.json names; run it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that into the checkout as well.
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# Cache-size overrides would change what is measured.
unset GVMR_STAGING_BYTES GVMR_FRAME_BYTES
(cd "$here" && go build -o "$build/gvmr-bench" .) >&2
exec "$build/gvmr-bench" "$@"
