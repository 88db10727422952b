GO ?= go

.PHONY: build test vet race fuzz chaos torture smoke shard-smoke bench-e2e bench-compare pairs bench-point bench-mixed bench-update bench-scan bench-load plan-check plan-golden mvcc-sweep loc verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race pass in short mode: the race detector multiplies runtimes ~10x, so
# the gate runs the suite with -short; the concurrency stress tests
# (engines, pager, btree, driver) all run in short mode.
race:
	$(GO) test -race -short ./...

# Fuzz, 20 s each: the binary-DOM cursor (xmldom.OpenRecord and Ref)
# against DecodeBinary, the reference decoder of its tests; ParseRecord
# held to itself (a failed parse empties the record, an accepted one gets
# OpenRecord's node table, round-trips through the serializer to the same
# bytes, and RootName names its root); ParseRecord held to encoding/xml,
# a parser that shares no code with it (on every input both accept, the
# same kinds, names, attributes, comments, PIs and text runs after the
# whitespace rule); the in-place ASCII fold of
# xquery.ContainsWord and of a CompileWord matcher, on a string and on
# bytes, against its definition over lower-cased copies; Word.MatchXML,
# which must be true for any document an element of which holds the word;
# xquery.Parse, which must answer any input with a query or a positioned
# *xquery.Error, never a panic; and the compiled evaluator, which must run
# every query Parse accepts over a fixed collection (a record listing a
# name twice among it) to a result or a positioned *xquery.Error; and the
# shredder, which must store exactly the rows Count predicts of any
# document it does not refuse, and fill side tables without a panic
# however deep a document's recursion; and the journal's one record
# decoder (updatelog.Decode, what recovery and replicas read with), which
# must return a prefix of any input that its records re-encode to byte
# for byte, never a panic or a read past the input, and to which
# DecodeOne, what a server reads an update request's record with, must
# agree.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCursor -fuzztime=20s ./internal/xmldom/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=20s ./internal/xmldom/
	$(GO) test -run='^$$' -fuzz=FuzzEncodingXML -fuzztime=20s ./internal/xmldom/
	$(GO) test -run='^$$' -fuzz=FuzzContainsWord -fuzztime=20s ./internal/xquery/
	$(GO) test -run='^$$' -fuzz=FuzzMatchXML -fuzztime=20s ./internal/xquery/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=20s ./internal/xquery/
	$(GO) test -run='^$$' -fuzz=FuzzEval -fuzztime=20s ./internal/xquery/
	$(GO) test -run='^$$' -fuzz=FuzzShredDocument -fuzztime=20s ./internal/shredder/
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=20s ./internal/updatelog/

# Crash/recovery fault-injection grid over every engine x class. Each
# crash point is one served life: server.Reopen over a fresh journal is
# the load, then (multi-document classes) U1, U2 and U3 from a loopback
# client. Crash points lie inside the load and, across each update's
# disk operations inclusive of both ends, inside each update (rolled
# back) and at its end (acknowledged). The restart is a fresh engine
# Reopening the same journal: it must replay exactly the acknowledged
# updates and answer every query as the fault-free twin does in that
# state. The grid is deterministic and committed in
# results/chaos_grid.txt; the target fails on a FAIL cell and on any
# other difference from it, so fewer crashes inside U1-U3 or fewer
# answers compared is a reviewed diff.
chaos: build
	@grid=$$($(GO) run ./cmd/xbench chaos) || { echo "$$grid"; exit 1; }; \
	echo "$$grid" | diff -u results/chaos_grid.txt - || \
		{ echo "chaos grid differs from results/chaos_grid.txt; if intended: go run ./cmd/xbench chaos > results/chaos_grid.txt"; exit 1; }
	@cat results/chaos_grid.txt

# Process-kill torture: a real `xbench serve --journal` child is
# SIGKILLed and restarted 20 times at seeded points during a mixed
# read/write storm; the journal must afterwards hold exactly the set of
# acknowledged updates (no lost ack, no double-apply). The shard-kill
# variant runs the same drill against a 3-shard router with a read
# replica, SIGKILLing a whole shard: cluster-wide exactly-once, and reads
# keep answering through every dead-primary window.
torture:
	$(GO) test -run 'TestProcessKillTorture|TestShardKillTorture|TestSupervisorKill' -v ./internal/chaos/

# Serving-layer smoke: xbench serve on loopback, remote 2-client sweep +
# remote updates, kill -9 + journal-recovery restart, SIGTERM, require a
# graceful exit 0.
smoke:
	bash scripts/serve_smoke.sh

# Sharded serving-tier smoke: 3 `serve --shard` primaries + 1 journal-fed
# replica behind `xbench route`; mixed sweep, kill -9 one whole shard
# mid-run (reads must keep answering via the replica), journal-recovery
# restart, graceful router drain with the per-shard metrics report.
shard-smoke:
	bash scripts/shard_smoke.sh

# The repo's benchmark (BENCHMARK.json, benchmarks/README.md): all four
# workloads, untraced for the end-to-end metrics and traced for the
# per-layer ones, into benchmarks/results/local.json.
bench-e2e:
	bash benchmarks/run.sh --label local

# Compare two sets of results files metric by metric against the bounds
# BENCHMARK.json fixes: make bench-compare A=parent.json B=change.json
# (comma-separate several runs per side).
bench-compare:
	bash benchmarks/run.sh --compare $(A) $(B)

# Alternated pairs of two commits on the benchmark (scripts/pairs.sh):
# each side built from a git archive copy, A and B run in turn PAIRS
# times per workload, then the benchmark's verdict and one
# results/trajectory.tsv row per workload with B's win count on METRIC:
# make pairs A=<commit> B=<commit> [PAIRS=5] [WORKLOADS=w1,w2] [SEED=7] [METRIC=qps]
PAIRS ?= 5
SEED ?= 7
METRIC ?= qps
pairs:
	bash scripts/pairs.sh $(A) $(B) --pairs $(PAIRS) --seed $(SEED) --metric $(METRIC) $(if $(WORKLOADS),--workloads $(WORKLOADS))

# The point read in-process and through a loopback server on every
# engine (root bench_test.go, BenchmarkPointRead): ns/op, p50_us and
# allocations per operation. Add -cpuprofile to see where a served
# request spends its time. BENCHTIME=1x is CI's smoke.
bench-point: BENCHTIME = 1s
bench-point:
	$(GO) test -run '^$$' -bench PointRead -benchtime $(BENCHTIME) -benchmem .

# The mixed read in-process on every engine (root bench_test.go,
# BenchmarkMixedRead): engine_mixed's DC/MD Small mix with one U1/U2/U3
# after every read; ns/op, p50_us of a read, allocs/op, and the shares of
# native record opens served by the memo and of plan cells a commit
# carried. BENCHTIME=1x is CI's smoke.
bench-mixed: BENCHTIME = 1s
bench-mixed:
	$(GO) test -run '^$$' -bench MixedRead -benchtime $(BENCHTIME) -benchmem .

# The update path in-process on every engine (root bench_test.go,
# BenchmarkUpdateWorkload): U1, U2 and U3 on DC/MD Small, each timed as
# the one engine call (Apply); ns/op, B/op and allocs/op per update. Add
# -cpuprofile to see where an update spends its time. B/op holds across
# run lengths (a U1 adds a document each time), so 2000x is the default;
# BENCHTIME=1x is CI's smoke.
bench-update: BENCHTIME = 2000x
bench-update:
	$(GO) test -run '^$$' -bench UpdateWorkload -benchtime $(BENCHTIME) -benchmem .

# The scan path on every engine (root bench_test.go, BenchmarkScan): the
# DC/MD scan mix warm at Small, and every DC/MD and TC/MD query cold at
# Normal in a 64-page pool as paper_cold runs them; one op is one pass
# over the mix: ns/op, p50_us of a query, allocs/op, pageIO/op. Every
# answer's item count is checked, so BENCHTIME=1x is a smoke (CI's).
BENCHTIME ?= 20x
bench-scan:
	$(GO) test -run '^$$' -bench Scan -benchtime $(BENCHTIME) -benchmem .

# Set-up as paper_cold pays it (root bench_test.go): BenchmarkLoad, one
# Load plus BuildIndexes of the default Normal DC/MD and TC/MD databases
# into a fresh engine with a 64-page pool, on every engine: ns/op, MB/s,
# pageIO/op, B/op; then its two parallel halves' inputs alone,
# BenchmarkGenerate (the databases, on every core) and BenchmarkParse
# (every document parsed into one reused record on one goroutine): MB/s
# and allocs/op.
# pageIO/op is exact; BENCHTIME=1x is CI's smoke.
bench-load:
	$(GO) test -run '^$$' -bench '^Benchmark(Load|Generate|Parse)$$' -benchtime $(BENCHTIME) -benchmem .

# MVCC snapshot-read smoke: read p99 must stay within 2x the read-only
# p99 at 30% updates, because snapshots pin readers off the engine write
# lock (DESIGN.md §15). Large per-point samples so the p99 is a real
# quantile, not the single worst scheduler hiccup; no think time, so the
# readers and the updaters actually overlap.
mvcc-sweep: build
	$(GO) run ./cmd/xbench throughput --engine=sql-server --class=dcmd --size=small \
		--clients=2 --ops=400 --think=-1ns --update-fraction=0,0.3 --check-flat-reads

# Non-test Go lines outside benchmarks/: total and per top-level
# directory of internal/ — what "net non-test lines down" is measured
# with — then the CLI's surface: subcommands and flag-registration sites
# of cmd/xbench, and the exported Config/Options/FaultPolicy fields. The
# counts are committed in results/loc.txt and the target fails when the
# tree differs from them, so a change to the line count or to the surface
# is a reviewed diff.
loc:
	@bash scripts/loc.sh | diff -u results/loc.txt - || \
		{ echo "line counts differ from results/loc.txt; if intended: bash scripts/loc.sh > results/loc.txt"; exit 1; }
	@cat results/loc.txt

# Plan regression gate: the tree every engine family runs for each
# (class, query) cell, drawn with the plan over fixture statistics — the
# native engine's, the shredded layout's and Xcolumn's — must match the
# checked-in corpora under results/plans/native/, results/plans/shredded/
# and results/plans/xcolumn/ byte for byte.
plan-check:
	$(GO) test -run TestGoldenPlans ./internal/engines/native/ ./internal/engines/shredplan/

# Refresh the EXPLAIN corpora after an intended planner or tree change;
# commit the diff alongside the change that caused it.
plan-golden:
	$(GO) test -run TestGoldenPlans ./internal/engines/native/ ./internal/engines/shredplan/ -args -update-plans

# The PR gate: everything that must be green before a change lands.
verify: build vet test race chaos torture smoke shard-smoke plan-check loc
