#!/usr/bin/env bash
# Alternated pairs of two commits on the benchmark (BENCHMARK.json):
#
#   bash scripts/pairs.sh A B [--pairs N] [--workloads W1,W2,...] [--seed S]
#                             [--metric M] [--claim TEXT] [--pr LABEL] [--quick]
#                             [--keep DIR]
#
# Each side's benchmarks/e2e is built from a `git archive` copy of its
# commit under $TMPDIR and run from that copy, so each side runs with its
# own BENCHMARK.json. For every workload the script runs N pairs, untraced,
# A then B on odd pairs and B then A on even ones, so a drift of the host
# lands on both sides alike. It then prints the benchmark's own verdict
# (`e2e --compare A B`) and, beside it, the CPU each side spent per
# operation: every run's user+sys CPU seconds (the e2e child's, from
# `times`) over the operations it attempted, the median of A's and of B's
# runs, and how many of the N pairs B spent less in. A gc_per_op line
# does the same for garbage-collection cycles: the child runs under
# GODEBUG=gctrace=1, its "gc N @..." stderr lines are counted per run
# (the rest of its stderr is passed through), and each side's median
# cycles per attempted operation is printed with how many pairs B ran
# fewer in. Both lines end with the interquartile range of A's runs,
# and with "inside A's spread" when B's median falls within it: a
# pairs-won count on such a column is the host's noise, not evidence.
# For each end-to-end metric of BENCHMARK.json it then prints the ratio
# B/A of every pair's two runs: their median, and the sign-test interval
# r_(k)–r_(n+1−k) of the n sorted ratios with its coverage, the chance
# that it holds the median ratio, 1 − 2·P(Binomial(n, ½) < k). k is the
# largest whose coverage is at least 95 %, or 1: min–max at 75 % for
# n = 3, r_(2)–r_(9) at 97.9 % for n = 10.
# Then one results/trajectory.tsv row per workload:
# B's median and quartiles of qps, read_p50_ms, setup_s and space_amp, the
# claim column (TEXT, default "-"), and how many of the N pairs B won on
# metric M (default qps; "won" is better in the direction BENCHMARK.json
# gives M), with the ratio of B's median of M to A's. The rows go to
# stdout after the verdicts; append them to the trajectory by hand.
# --keep copies every results file to DIR as <a|b>.<workload>.json, and
# its runs' CPU seconds and GC cycles as <a|b>.<workload>.cpu and .gc.
# --quick runs the smoke scale, where no number means anything: CI runs
# HEAD against HEAD with it so the script cannot rot. Needs git, go, jq.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,40p' "$0" >&2; exit 2; }
[ $# -ge 2 ] || usage
a=$1 b=$2
shift 2
pairs=5 workloads="" seed=7 metric=qps claim=- pr=- keep="" quick=()
while [ $# -gt 0 ]; do
	case "$1" in
	--pairs) pairs=$2; shift 2 ;;
	--workloads) workloads=$2; shift 2 ;;
	--seed) seed=$2; shift 2 ;;
	--metric) metric=$2; shift 2 ;;
	--claim) claim=$2; shift 2 ;;
	--pr) pr=$2; shift 2 ;;
	--keep) keep=$2; shift 2 ;;
	--quick) quick=(--quick); shift ;;
	*) usage ;;
	esac
done

work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
for side in a b; do
	commit=${!side}
	mkdir -p "$work/$side"
	git archive "$commit" | tar -x -C "$work/$side"
	(cd "$work/$side" && go build -o e2e ./benchmarks/e2e)
	git rev-parse --short "$commit" >"$work/$side.commit"
done
[ -n "$workloads" ] || workloads=$(cd "$work/b" && ./e2e --list | paste -sd, -)

run() { # side workload: one more run in <side>.<workload>.json, its CPU seconds in .cpu, its GC cycles in .gc
	local status=0
	(cd "$work/$1" && GODEBUG=gctrace=1 ./e2e --workload "$2" --seed "$seed" --trace 0 "${quick[@]}" \
		--out "$work/$1.$2.json" --commit "$(cat "$work/$1.commit")" >/dev/null 2>"$work/stderr" &&
		times >"$work/times") || status=$?
	grep -v '^gc [0-9]* @' "$work/stderr" >&2 || true
	[ "$status" = 0 ] || exit "$status"
	grep -c '^gc [0-9]* @' "$work/stderr" >>"$work/$1.$2.gc" || true
	# The second line of `times` is the children's user and sys time, "XmY.ZZZs" each.
	awk 'NR == 2 { split($0, t, /[ms]+ */); print t[1] * 60 + t[2] + t[3] * 60 + t[4] }' \
		"$work/times" >>"$work/$1.$2.cpu"
}

# q: the $p quantile of $xs, interpolated; sig6: six significant digits.
jqlib='
	def q($xs; $p): ($xs | sort) as $s | ($p * (($s | length) - 1)) as $x |
		($x | floor) as $i | $s[$i] + ($x - $i) * ($s[[$i + 1, ($s | length) - 1] | min] - $s[$i]);
	def sig6: if . == 0 then 0 else pow(10; 5 - (fabs | log10 | floor)) as $p | (. * $p | round) / $p end;'

perop() { # workload cpu|gc: "median A, median B, pairs B won, pairs, A's spread" of that count per attempted op
	jq -rn --slurpfile ac "$work/a.$1.$2" --slurpfile bc "$work/b.$1.$2" \
		--slurpfile ar "$work/a.$1.json" --slurpfile br "$work/b.$1.json" "$jqlib"'
		def perop($c; $r): [$r[0].runs[].result.attempted] as $ops | [range(0; $ops | length) | $c[.] / $ops[.]];
		perop($ac; $ar) as $a | perop($bc; $br) as $b |
		[range(0; $a | length) | select($b[.] < $a[.])] as $won |
		[q($a; 0.25), q($a; 0.75), q($b; 0.5)] as [$lo, $hi, $mb] |
		[(q($a; 0.5) | sig6), ($mb | sig6), ($won | length), ($a | length),
			"A IQR [\($lo | sig6), \($hi | sig6)]\(if $mb >= $lo and $mb <= $hi then ", inside A'"'"'s spread" else "" end)"] | @tsv'
}

ratios() { # workload: per end-to-end metric "name, median ratio, r_(k), r_(n+1-k), coverage %, k, n" of B_i/A_i
	jq -rn --slurpfile ar "$work/a.$1.json" --slurpfile br "$work/b.$1.json" --slurpfile bench BENCHMARK.json "$jqlib"'
		def vals($f; $k): [$f[0].runs[].result.metrics[$k].value];
		def choose($n; $k): reduce range(0; $k) as $i (1; . * ($n - $i) / ($i + 1));
		def coverage($n; $k): 1 - 2 * ([range(0; $k) | choose($n; .)] | add) / pow(2; $n);
		$bench[0].end_to_end[].name as $m | vals($ar; $m) as $a | vals($br; $m) as $b |
		[range(0; [$a, $b] | map(length) | min) | select($a[.] != null and $b[.] != null and $a[.] != 0) | $b[.] / $a[.]] |
		sort as $r | ($r | length) as $n | select($n > 0) |
		([range(1; ($n + 1) / 2 | floor + 1) | select(coverage($n; .) >= 0.95)] | max // 1) as $k |
		[$m, (q($r; 0.5) | sig6), ($r[$k - 1] | sig6), ($r[$n - $k] | sig6), (coverage($n; $k) * 1000 | round / 10), $k, $n] | @tsv'
}

better=$(jq -r --arg m "$metric" '.end_to_end[] | select(.name == $m) | .better' BENCHMARK.json)
[ -n "$better" ] || { echo "pairs: $metric is not an end-to-end metric of BENCHMARK.json" >&2; exit 2; }
host="$(nproc)-core $(uname -m), $(go env GOVERSION), $(cat "$work/a.commit") and $(cat "$work/b.commit") alternated"
rows=()
for w in ${workloads//,/ }; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) = 1 ]; then run a "$w"; run b "$w"; else run b "$w"; run a "$w"; fi
		echo "pairs: $w $i/$pairs" >&2
	done
	{ (cd "$work/b" && ./e2e --compare "$work/a.$w.json" "$work/b.$w.json") || true; } |
		awk -v w="$w" 'NR == 1 || $1 == w'
	IFS=$'\t' read -r acpu bcpu won n spread < <(perop "$w" cpu)
	printf '%-14s %-14s %14s %14s  B spent less on %s/%s pairs; %s\n' "$w" "cpu_s_per_op" "$acpu" "$bcpu" "$won" "$n" "$spread"
	IFS=$'\t' read -r agc bgc won n spread < <(perop "$w" gc)
	printf '%-14s %-14s %14s %14s  B ran fewer on %s/%s pairs; %s\n' "$w" "gc_per_op" "$agc" "$bgc" "$won" "$n" "$spread"
	while IFS=$'\t' read -r m med lo hi cov k n; do
		printf '%-14s %-14s ratio B/A: median %s, interval [%s, %s] covering %s %% (k = %s of n = %s)\n' \
			"$w" "$m" "$med" "$lo" "$hi" "$cov" "$k" "$n"
	done < <(ratios "$w")
	rows+=("$(jq -rs --arg pr "$pr" --arg w "$w" --arg seed "$seed" --arg m "$metric" \
		--arg better "$better" --arg claim "$claim" --arg host "$host" "$jqlib"'
		def vals($f; $k): [$f.runs[].result.metrics[$k].value];
		.[0] as $A | .[1] as $B |
		[vals($A; $m), vals($B; $m)] as [$am, $bm] |
		[range(0; $am | length) | select(if $better == "higher" then $bm[.] > $am[.] else $bm[.] < $am[.] end)] as $won |
		[$pr, $w, $seed, ($bm | length | tostring)] +
		([ "qps", "read_p50_ms", "setup_s", "space_amp" ] | map(vals($B; .) as $v |
			[q($v; 0.5), q($v; 0.25), q($v; 0.75)] | map(sig6 | tostring)) | add) +
		[$claim, "\($won | length)/\($am | length) on \($m) (\(q($bm; 0.5) / q($am; 0.5) | sig6)x)", $host] | @tsv' \
		"$work/a.$w.json" "$work/b.$w.json")")
done
if [ -n "$keep" ]; then mkdir -p "$keep" && cp "$work"/[ab].*.json "$work"/[ab].*.cpu "$work"/[ab].*.gc "$keep"/; fi
printf '%s\n' "${rows[@]}"
