#!/usr/bin/env bash
# Build the end-to-end benchmark inside this checkout and run it.
#
#   bash benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload: the command BENCHMARK.json declares. Every
#       argument is passed through to the program (see benchmarks/e2e).
#
#   bash benchmarks/run.sh [--label L] [--seed N] [--seconds S]
#       the whole benchmark: each workload in its own process, untraced for
#       the end-to-end metrics and then traced for the per-layer ones, all
#       added to benchmarks/results/<label>.json with the machine tuple.
#
#   bash benchmarks/run.sh --compare A.json[,..] B.json[,..]   (also --bounds, --list)
#
# Everything the build and the runs write stays under .bench_build/ and
# benchmarks/results/ of the checkout, the Go build cache included.
set -euo pipefail
cd "$(dirname "$0")/.."

build=.bench_build
mkdir -p "$build"
export GOCACHE="$PWD/$build/gocache"
go build -o "$build/e2e" ./benchmarks/e2e

label="" seed=1 seconds="" single=0
args=("$@")
while [ $# -gt 0 ]; do
	case "$1" in
	--label) label=$2; shift 2 ;;
	--seed) seed=$2; shift 2 ;;
	--seconds) seconds=$2; shift 2 ;;
	*) single=1; shift ;;
	esac
done
if [ "$single" = 1 ]; then
	exec "$build/e2e" "${args[@]}"
fi

label=${label:-local}
out="benchmarks/results/$label.json"
mkdir -p benchmarks/results
rm -f "$out"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
status=0
for w in $("$build/e2e" --list); do
	for trace in 0 1; do
		"$build/e2e" --workload "$w" --seed "$seed" ${seconds:+--seconds "$seconds"} \
			--trace "$trace" --out "$out" --commit "$commit" || status=1
	done
done
echo "wrote $out"
exit $status
