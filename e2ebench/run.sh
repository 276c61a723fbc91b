#!/usr/bin/env bash
# Builds the benchmark, cmd/serve and cmd/ingest from the tree it is run
# in, then runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload learn-uw --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" || ! -d "$root/cmd/ingest" ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/serve and cmd/ingest must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The Go tool keeps its settings and telemetry under the user config
# directory; keep those inside the tree as well.
export XDG_CONFIG_HOME="$out/config"
# The module has no dependencies to fetch: never reach for the network.
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off CGO_ENABLED=0

# Built on every invocation, so two trees never share binaries; with a
# warm cache under .bench_build this is a relink.
go build -o "$out/bin/serve" ./cmd/serve
go build -o "$out/bin/ingest" ./cmd/ingest
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)

exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out" "$@"
