#!/usr/bin/env bash
# Builds alpsd and the benchmark from this checkout, then runs one
# workload: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of the repository. Build outputs, the Go build
# cache, data directories and span files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work"
# Everything the go command writes, its telemetry counters included, goes
# under .bench_build/.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/alpsd" ]; then
	echo "perfbench: run from the root of the alps repository (no go.mod or cmd/alpsd here)" >&2
	exit 1
fi
go build -o "$out/bin/alpsd" ./cmd/alpsd >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload | --seed | --seconds | --trace)
		args+=("-${1#--}" "$2")
		shift 2
		;;
	*)
		echo "perfbench: unknown argument $1" >&2
		exit 2
		;;
	esac
done
exec "$out/bin/perfbench" -alpsd "$out/bin/alpsd" -workdir "$out/work" "${args[@]}"
