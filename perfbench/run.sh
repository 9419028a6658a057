#!/usr/bin/env bash
# Builds the rrcsimd daemon and the perfbench program from the sources of
# the checkout it is run from, then runs perfbench with the given
# arguments:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binaries, the resume workload's cell store, span dumps)
# stays under .bench_build in that root, and no module is fetched.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rrcsimd" ]; then
	echo "run.sh: $root holds no rrcsimd sources; run it from the repository root" >&2
	exit 2
fi
command -v go > /dev/null || PATH="$PATH:/usr/local/go/bin" # the standard install location
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/rrcsimd" ./cmd/rrcsimd
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/rrcsimd" -work "$out" -root "$root" "$@"
