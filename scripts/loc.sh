#!/usr/bin/env bash
# Non-test Go lines outside benchmarks/ and .bench_build/: the total, and
# one row per top-level directory of internal/. Then the CLI's surface:
# the subcommand rows of cmd/xbench's command table and its
# flag-registration sites (a flag several commands share is registered
# once, in a helper). Then the knobs: exported fields of the structs
# named ...Config, ...Options or FaultPolicy in the same files, one per
# field line of the struct body. Last, what an engine has to supply: the
# methods declared in the engbase.Store interface beside Name.
set -euo pipefail
cd "$(dirname "$0")/.."
src() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.bench_build/*' -print0 | xargs -0 cat; }
count() { src "$@" | wc -l; }
printf '%7d  total\n' "$(count .)"
for d in internal/*/; do
  printf '%7d  %s\n' "$(count "$d")" "${d%/}"
done
cli() { find cmd/xbench -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat; }
printf '%7d  cmd/xbench subcommands\n' "$(cli | grep -cE '^	\{"[a-z-]+", ".*", setup[A-Za-z]+\},$')"
printf '%7d  cmd/xbench flag registrations\n' "$(cli | grep -oE 'fs\.(String|Int|Bool|Duration|Uint64|Float64)\(' | wc -l)"
printf '%7d  exported Config/Options/FaultPolicy fields\n' "$(src . | awk '
  /^type [A-Za-z]*(Config|Options|FaultPolicy) struct \{/ { body = 1; next }
  body && /^\}/ { body = 0 }
  body && /^\t[A-Z][A-Za-z0-9]*[ ,]/ { n++ }
  END { print n + 0 }')"
printf '%7d  engbase.Store hooks (methods beside Name)\n' "$(awk '
  /^type Store\[.*\] interface \{/ { body = 1; next }
  body && /^\}/ { body = 0 }
  body && /^\t[A-Z][A-Za-z0-9]*\(/ && !/^\tName\(/ { n++ }
  END { print n + 0 }' internal/engines/engbase/engbase.go)"
