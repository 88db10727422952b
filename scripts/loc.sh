#!/usr/bin/env bash
# Non-test Go lines outside benchmarks/ and .bench_build/: the total, and
# one row per top-level directory of internal/.
set -euo pipefail
cd "$(dirname "$0")/.."
count() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l; }
printf '%7d  total\n' "$(count .)"
for d in internal/*/; do
  printf '%7d  %s\n' "$(count "$d")" "${d%/}"
done
