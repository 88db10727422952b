package xbench

// Benchmarks regenerating the paper's measured tables, one benchmark
// family per table:
//
//	BenchmarkTable4BulkLoad  — Table 4 (bulk loading time)
//	BenchmarkTable5Q5        — Table 5 (ordered access)
//	BenchmarkTable6Q12       — Table 6 (document construction)
//	BenchmarkTable7Q17       — Table 7 (text search)
//	BenchmarkTable8Q8        — Table 8 (path expressions)
//	BenchmarkTable9Q14       — Table 9 (missing elements)
//
// Sub-benchmarks enumerate engine/class/size cells; unsupported cells
// (the paper's blank entries) are skipped. By default only the Small
// size runs so `go test -bench=.` stays quick; set
// XBENCH_BENCH_SIZES=small,normal[,large] for the full grid, which is
// what EXPERIMENTS.md is produced from (via cmd/xbench bench).
//
// Each iteration is a cold run: caches are flushed before the query, per
// the paper's methodology. b.ReportMetric exposes the page I/O per
// operation so the disk-bound shape is visible alongside wall time.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xbench/internal/bench"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/server"
	"xbench/internal/workload"
	"xbench/internal/xmldom"
)

// benchCfg shrinks the databases ~4x versus the library defaults so the
// grid is tractable under `go test -bench`; ratios between sizes are
// unchanged.
var benchCfg = gen.Config{
	DictEntries: 100,
	Articles:    8,
	Items:       40,
	Orders:      80,
}

var (
	runnerOnce sync.Once
	runner     *bench.Runner
)

func benchSizes() []core.Size {
	env := os.Getenv("XBENCH_BENCH_SIZES")
	if env == "" {
		return []core.Size{core.Small}
	}
	var sizes []core.Size
	for _, part := range strings.Split(env, ",") {
		s, err := core.ParseSize(strings.TrimSpace(part))
		if err != nil {
			panic(err)
		}
		sizes = append(sizes, s)
	}
	return sizes
}

func sharedRunner() *bench.Runner {
	runnerOnce.Do(func() {
		runner = bench.NewRunner(benchCfg, benchSizes(), os.Stderr)
	})
	return runner
}

func cellName(engine string, class core.Class, size core.Size) string {
	return fmt.Sprintf("%s/%s/%s", strings.ReplaceAll(engine, " ", ""), class.Code(), size)
}

// BenchmarkTable4BulkLoad regenerates Table 4: fresh engine, full bulk
// load (and the automatic PK/FK index creation of the relational
// engines) per iteration.
func BenchmarkTable4BulkLoad(b *testing.B) {
	r := sharedRunner()
	for _, engine := range bench.EngineNames {
		for _, class := range core.Classes {
			for _, size := range benchSizes() {
				e := bench.NewEngine(engine)
				if err := e.Supports(class, size); err != nil {
					continue // blank cell in the paper's table
				}
				db, err := r.Database(class, size)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(cellName(engine, class, size), func(b *testing.B) {
					var io int64
					for i := 0; i < b.N; i++ {
						fresh := bench.NewEngine(engine)
						st, err := fresh.Load(context.Background(), db)
						if err != nil {
							b.Fatal(err)
						}
						io += st.PageIO
					}
					b.ReportMetric(float64(io)/float64(b.N), "pageIO/op")
					b.SetBytes(int64(db.Bytes()))
				})
			}
		}
	}
}

func benchQueryTable(b *testing.B, tableNo int) {
	q := bench.TableQueries[tableNo]
	r := sharedRunner()
	for _, engine := range bench.EngineNames {
		for _, class := range core.Classes {
			for _, size := range benchSizes() {
				engine, class, size := engine, class, size
				probe, err := r.Measure(engine, class, size, q)
				if errors.Is(err, core.ErrUnsupported) {
					continue // blank cell
				}
				if err != nil {
					b.Fatalf("%s %s/%s %s: %v", engine, class, size, q, err)
				}
				_ = probe
				b.Run(cellName(engine, class, size), func(b *testing.B) {
					var io float64
					for i := 0; i < b.N; i++ {
						m, err := r.Measure(engine, class, size, q)
						if err != nil {
							b.Fatal(err)
						}
						io += m.PageIO
					}
					b.ReportMetric(io/float64(b.N), "pageIO/op")
				})
			}
		}
	}
}

// BenchmarkTable5Q5 regenerates Table 5 (Q5: absolute ordered access).
func BenchmarkTable5Q5(b *testing.B) { benchQueryTable(b, 5) }

// BenchmarkTable6Q12 regenerates Table 6 (Q12: document construction
// preserving structure).
func BenchmarkTable6Q12(b *testing.B) { benchQueryTable(b, 6) }

// BenchmarkTable7Q17 regenerates Table 7 (Q17: uni-gram text search,
// no full-text indexes).
func BenchmarkTable7Q17(b *testing.B) { benchQueryTable(b, 7) }

// BenchmarkTable8Q8 regenerates Table 8 (Q8: path expression with one
// unknown element).
func BenchmarkTable8Q8(b *testing.B) { benchQueryTable(b, 8) }

// BenchmarkTable9Q14 regenerates Table 9 (Q14: irregular data, missing
// elements; deliberately no index on the missing element).
func BenchmarkTable9Q14(b *testing.B) { benchQueryTable(b, 9) }

// BenchmarkDatabaseGeneration measures the generators themselves (the
// ToXgene-analog path for TC classes, the TPC-W mapping for DC classes).
func BenchmarkDatabaseGeneration(b *testing.B) {
	for _, class := range core.Classes {
		b.Run(class.Code(), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				db, err := benchCfg.Generate(class, core.Small)
				if err != nil {
					b.Fatal(err)
				}
				bytes = int64(db.Bytes())
			}
			b.SetBytes(bytes)
		})
	}
}

// BenchmarkXQueryEngine measures raw query-engine throughput on a
// pre-parsed in-memory collection (no I/O), isolating evaluator cost from
// storage cost — a micro-benchmark in the spirit of the Michigan
// benchmark the paper contrasts itself with.
func BenchmarkXQueryEngine(b *testing.B) {
	db, err := benchCfg.Generate(core.DCSD, core.Small)
	if err != nil {
		b.Fatal(err)
	}
	queriesToRun := map[string]string{
		"exact-match": `//item[@id = "I7"]/title`,
		"aggregate":   `count(//item[number(attributes/number_of_pages) > 500])`,
		"flwor-sort":  `for $i in //item order by $i/subject return $i/@id`,
		"quantified":  `//item[every $a in authors/author satisfies exists($a/contact_information)]/@id`,
	}
	for name, q := range queriesToRun {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EvalXQuery(q, db.Docs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBenchmarkCellsMatchPaperBlanks pins the support matrix that decides
// which benchmark cells exist, so the bench grid cannot silently drift
// from the paper's tables.
func TestBenchmarkCellsMatchPaperBlanks(t *testing.T) {
	type cell struct {
		engine string
		class  core.Class
		size   core.Size
	}
	blanks := []cell{
		{"Xcolumn", core.DCSD, core.Small},
		{"Xcolumn", core.TCSD, core.Large},
		{"Xcollection", core.DCSD, core.Normal},
		{"Xcollection", core.TCSD, core.Large},
	}
	for _, c := range blanks {
		e := bench.NewEngine(c.engine)
		if err := e.Supports(c.class, c.size); err == nil {
			t.Errorf("%s %s %s should be a blank cell", c.engine, c.class, c.size)
		}
	}
	filled := []cell{
		{"Xcollection", core.TCSD, core.Small},
		{"SQL Server", core.TCSD, core.Large},
		{"X-Hive", core.DCMD, core.Large},
		{"Xcolumn", core.TCMD, core.Large},
	}
	for _, c := range filled {
		e := bench.NewEngine(c.engine)
		if err := e.Supports(c.class, c.size); err != nil {
			t.Errorf("%s %s %s should be measurable: %v", c.engine, c.class, c.size, err)
		}
	}
	_ = workload.Params(core.DCMD) // keep the workload import honest
}

// BenchmarkAblationBufferPool varies the buffer pool size on a scan-heavy
// query: the design choice DESIGN.md calls out (a pool small relative to
// Large databases keeps cold scans disk-bound).
func BenchmarkAblationBufferPool(b *testing.B) {
	db, err := benchCfg.Generate(core.DCMD, core.Small)
	if err != nil {
		b.Fatal(err)
	}
	for _, pool := range []int{32, 512, 8192} {
		e := native.New(pool)
		if _, _, err := workload.LoadAndIndex(context.Background(), e, db); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pool%d", pool), func(b *testing.B) {
			var io int64
			for i := 0; i < b.N; i++ {
				m := workload.RunCold(context.Background(), e, core.DCMD, core.Q14)
				if m.Err != nil {
					b.Fatal(m.Err)
				}
				io += m.Result.PageIO
			}
			b.ReportMetric(float64(io)/float64(b.N), "pageIO/op")
		})
	}
}

// BenchmarkUpdateWorkload measures the document-granularity update
// operations (U1 insert, U2 replace, U3 delete) on every engine at DC/MD
// Small — one step into the paper's future-work list ("(2) update
// workloads"). ns/op is the engine call alone, as a workload.Updater
// times it. U2 replaces the newest of the documents an untimed preseed
// inserted (one), U3 deletes the oldest (b.N of them). Each call loads a
// fresh engine with the timer stopped, so no earlier call's churn prices
// this one. What an update leaves is TestUpdateWorkload's to check: a
// native DC/MD Q1 walks the catalog, so checking b.N documents here
// would take minutes.
func BenchmarkUpdateWorkload(b *testing.B) {
	ctx := context.Background()
	db, err := benchCfg.Generate(core.DCMD, core.Small)
	if err != nil {
		b.Fatal(err)
	}
	for _, key := range benchEngines {
		for _, op := range workload.UpdateOps {
			b.Run(key+"/"+op.String(), func(b *testing.B) {
				b.StopTimer()
				e, err := New(key)
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				if _, err := LoadAndIndex(ctx, e, db); err != nil {
					b.Fatal(err)
				}
				u, err := workload.NewUpdater(core.DCMD, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				preseed := map[workload.UpdateOp]int{workload.U2: 1, workload.U3: b.N}[op]
				for range preseed {
					if _, _, err := u.Apply(ctx, e, workload.U1); err != nil {
						b.Fatal(err)
					}
				}
				var spent time.Duration
				b.StartTimer()
				for range b.N {
					did, d, err := u.Apply(ctx, e, op)
					if err != nil {
						b.Fatal(err)
					}
					if did != op {
						b.Fatalf("asked for %s, issued %s", op, did)
					}
					spent += d
				}
				b.StopTimer()
				b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
			})
		}
	}
}

// benchEngines are the engine keys BenchmarkPointRead and BenchmarkScan
// run over, in the benchmark's leg order.
var benchEngines = []string{"native", "xcolumn", "xcollection", "sqlserver"}

// pointMix is the benchmark's served_read mix (benchmarks/e2e probeMix):
// the four DC/MD point queries that cost a few microseconds in-process on
// the relational engines, so what a request costs is what surrounds them.
var pointMix = []core.QueryID{core.Q1, core.Q5, core.Q8, core.Q16}

// BenchmarkPointRead is the point read in-process and through a loopback
// server with the pipelined client, on every engine: DC/MD Small at seed
// 7, two closed-loop clients over pointMix, as the served_read workload
// and its inproc and wire rungs run it. ns/op is wall time over
// operations with both clients running; p50_us is the median of the
// per-operation latencies. It is the profiling handle for that path:
//
//	go test -run '^$' -bench PointRead/served/sqlserver -cpuprofile cpu.out .
func BenchmarkPointRead(b *testing.B) {
	ctx := context.Background()
	db, err := gen.Config{Seed: 7}.Generate(core.DCMD, core.Small)
	if err != nil {
		b.Fatal(err)
	}
	params := workload.Params(core.DCMD)
	const clients = 2
	for _, mode := range []string{"inproc", "served"} {
		for _, key := range benchEngines {
			b.Run(mode+"/"+key, func(b *testing.B) {
				e, err := New(key)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := LoadAndIndex(ctx, e, db); err != nil {
					e.Close()
					b.Fatal(err)
				}
				front := e
				if mode == "served" {
					srv := server.New(e, server.Config{}) // owns e from here on
					defer srv.Close()
					if err := srv.Start(); err != nil {
						b.Fatal(err)
					}
					c, err := client.Dial(srv.Addr().String(), client.Config{})
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					front = c
				} else {
					defer e.Close()
				}
				for _, q := range pointMix { // warm the pool and every lazy path
					if _, err := front.Execute(ctx, q, params); err != nil {
						b.Fatal(err)
					}
				}
				lat := make([][]time.Duration, clients)
				for c := range lat {
					lat[c] = make([]time.Duration, 0, b.N/clients+1)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := c; i < b.N; i += clients {
							t0 := time.Now()
							if _, err := front.Execute(ctx, pointMix[i/clients%len(pointMix)], params); err != nil {
								b.Error(err)
								return
							}
							lat[c] = append(lat[c], time.Since(t0))
						}
					}(c)
				}
				wg.Wait()
				b.StopTimer()
				var all []time.Duration
				for _, l := range lat {
					all = append(all, l...)
				}
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				if len(all) > 0 {
					b.ReportMetric(float64(all[len(all)/2])/1e3, "p50_us")
				}
			})
		}
	}
}

// BenchmarkMixedRead is engine_mixed's read in-process, on every engine:
// DC/MD Small at seed 7, two closed-loop clients, each following every
// read of the DC/MD mix with one update, U1, U2 and U3 in turn — a triple
// per three reads, the workload's 50 % share — so nearly every read meets
// a view a commit has just published. One operation is one read and the
// update after it: ns/op and allocs/op cover both, p50_us is the median
// read alone. memo_hit_% is the share of native record opens served from
// the record memo, cell_carry_% the share of plan cells a commit carried
// rather than a reader planned (native.memo.*, plan.cell.*). It is the
// profiling handle for that path:
//
//	go test -run '^$' -bench MixedRead/native -cpuprofile cpu.out .
func BenchmarkMixedRead(b *testing.B) {
	ctx := context.Background()
	db, err := gen.Config{Seed: 7}.Generate(core.DCMD, core.Small)
	if err != nil {
		b.Fatal(err)
	}
	params := workload.Params(core.DCMD)
	const clients = 2
	for _, key := range benchEngines {
		b.Run(key, func(b *testing.B) {
			e, err := New(key)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if _, err := LoadAndIndex(ctx, e, db); err != nil {
				b.Fatal(err)
			}
			var mix []core.QueryID
			for _, q := range workload.QueryIDs(core.DCMD) { // warm the pool and every lazy path
				if _, err := e.Execute(ctx, q, params); err == nil {
					mix = append(mix, q)
				} else if !errors.Is(err, core.ErrNoQuery) {
					b.Fatalf("%s: %v", q, err)
				}
			}
			// Each client updates documents of its own: it inserts the next
			// of its sequence numbers, replaces its newest, deletes its
			// oldest, starting from two so neither list runs dry.
			live := make([][]int, clients)
			next := make([]int, clients)
			update := func(c, i int) error {
				switch i % 3 {
				case 0:
					name, doc := workload.UpdateDoc(core.DCMD, next[c]*clients+c, 0)
					live[c], next[c] = append(live[c], next[c]*clients+c), next[c]+1
					return e.InsertDocument(ctx, name, doc)
				case 1:
					name, doc := workload.UpdateDoc(core.DCMD, live[c][len(live[c])-1], i%2+1)
					return e.ReplaceDocument(ctx, name, doc)
				}
				name, _ := workload.UpdateDoc(core.DCMD, live[c][0], 0)
				live[c] = live[c][1:]
				return e.DeleteDocument(ctx, name)
			}
			for c := range clients {
				for i := 0; i < 2; i++ {
					if err := update(c, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
			reg := e.(interface{ Metrics() *metrics.Registry }).Metrics()
			count := func(name string) int64 { return reg.Counter(name).Value() }
			hit0, miss0 := count("native.memo.hit"), count("native.memo.miss")
			carried0, planned0 := count("plan.cell.carried"), count("plan.cell.planned")
			lat := make([][]time.Duration, clients)
			for c := range lat {
				lat[c] = make([]time.Duration, 0, b.N/clients+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < b.N; i += clients {
						n := i / clients
						t0 := time.Now()
						if _, err := e.Execute(ctx, mix[n%len(mix)], params); err != nil {
							b.Error(err)
							return
						}
						lat[c] = append(lat[c], time.Since(t0))
						if err := update(c, n); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			var all []time.Duration
			for _, l := range lat {
				all = append(all, l...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			if len(all) > 0 {
				b.ReportMetric(float64(all[len(all)/2])/1e3, "p50_us")
			}
			share := func(yes, no int64) float64 { return 100 * float64(yes) / float64(max(yes+no, 1)) }
			if key == "native" {
				b.ReportMetric(share(count("native.memo.hit")-hit0, count("native.memo.miss")-miss0), "memo_hit_%")
			}
			b.ReportMetric(share(count("plan.cell.carried")-carried0, count("plan.cell.planned")-planned0), "cell_carry_%")
		})
	}
}

// scanMix is the scan half of the DC/MD read mix: the seven queries that
// are not key lookups, each a sequential pass over one or two heaps on
// the relational engines and over every document on the native one.
var scanMix = []core.QueryID{core.Q2, core.Q3, core.Q6, core.Q10, core.Q14, core.Q15, core.Q17}

// BenchmarkScan is the heap-scan path on every engine; one operation is
// one pass over a query mix. "warm" runs scanMix over DC/MD Small at seed
// 7 in a default pool — the reads that decide engine_mixed and
// routed_mixed. "cold/<class>" runs every query the engine defines for
// DC/MD and TC/MD at Normal in a 64-page pool, caches dropped (untimed)
// before each, as the paper_cold workload runs them. ns/op and allocs/op
// are per pass, p50_us is the median query, pageIO/op the pass's page
// I/O; an untimed first pass finds the queries the engine defines and
// every later answer must have its item count. It is the profiling
// handle for that path:
//
//	go test -run '^$' -bench Scan/warm/sqlserver -cpuprofile cpu.out .
func BenchmarkScan(b *testing.B) {
	ctx := context.Background()
	for _, cell := range []struct {
		name  string
		class core.Class
		size  core.Size
		pool  int // pages; 0 is the default pool and a warm run
		mix   []core.QueryID
	}{
		{"warm", core.DCMD, core.Small, 0, scanMix},
		{"cold/dcmd", core.DCMD, core.Normal, 64, workload.QueryIDs(core.DCMD)},
		{"cold/tcmd", core.TCMD, core.Normal, 64, workload.QueryIDs(core.TCMD)},
	} {
		db, err := gen.Config{Seed: 7}.Generate(cell.class, cell.size)
		if err != nil {
			b.Fatal(err)
		}
		params := workload.Params(cell.class)
		for _, key := range benchEngines {
			b.Run(cell.name+"/"+key, func(b *testing.B) {
				e, err := New(key, WithPoolPages(cell.pool))
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				if _, err := LoadAndIndex(ctx, e, db); err != nil {
					b.Fatal(err)
				}
				var mix []core.QueryID
				items := map[core.QueryID]int{}
				for _, q := range cell.mix {
					res, err := e.Execute(ctx, q, params)
					if errors.Is(err, core.ErrNoQuery) {
						continue
					}
					if err != nil {
						b.Fatalf("%s: %v", q, err)
					}
					mix, items[q] = append(mix, q), len(res.Items)
				}
				lat := make([]time.Duration, 0, b.N*len(mix))
				var io int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range mix {
						if cell.pool != 0 {
							b.StopTimer()
							e.ColdReset()
							b.StartTimer()
						}
						io0, t0 := e.PageIO(), time.Now()
						res, err := e.Execute(ctx, q, params)
						lat = append(lat, time.Since(t0))
						io += e.PageIO() - io0
						if err != nil || len(res.Items) != items[q] {
							b.Fatalf("%s: %d items, %v; the first pass answered %d", q, len(res.Items), err, items[q])
						}
					}
				}
				b.StopTimer()
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50_us")
				b.ReportMetric(float64(io)/float64(b.N), "pageIO/op")
			})
		}
	}
}

// BenchmarkLoad is the set-up paper_cold pays per engine and class: one
// operation is one Load plus BuildIndexes of the library-default Normal
// database at seed 7 into a fresh engine with a 64-page pool — the bulk
// load, the automatic key indexes and the Table 3 value indexes built
// while the pool is far smaller than the data. (BenchmarkTable4BulkLoad
// loads benchCfg's ≈ 4× smaller databases into the default pool.) ns/op
// and MB/s are per load, pageIO/op is the engine's page I/O for it and
// B/op what it allocated. It is the profiling handle for that path:
//
//	go test -run '^$' -bench Load/sqlserver/dcmd -cpuprofile cpu.out .
func BenchmarkLoad(b *testing.B) {
	ctx := context.Background()
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Normal)
		if err != nil {
			b.Fatal(err)
		}
		for _, key := range benchEngines {
			b.Run(key+"/"+class.Code(), func(b *testing.B) {
				var io int64
				b.ReportAllocs()
				b.SetBytes(int64(db.Bytes()))
				for i := 0; i < b.N; i++ {
					e, err := New(key, WithPoolPages(64))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := LoadAndIndex(ctx, e, db); err != nil {
						e.Close()
						b.Fatal(err)
					}
					io += e.PageIO()
					b.StopTimer()
					e.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(io)/float64(b.N), "pageIO/op")
			})
		}
	}
}

// BenchmarkGenerate is the other half of paper_cold's set-up: one
// operation generates the library-default Normal DC/MD or TC/MD database
// at seed 7, on as many cores as GOMAXPROCS allows. MB/s is per
// generated byte. It is the profiling handle for that path:
//
//	go test -run '^$' -bench Generate/dcmd -cpuprofile cpu.out .
func BenchmarkGenerate(b *testing.B) {
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		b.Run(class.Code(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db, err := gen.Config{Seed: 7}.Generate(class, core.Normal)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(db.Bytes()))
			}
		})
	}
}

// BenchmarkParse is the parser alone on one goroutine: one operation
// parses every document of the Normal DC/MD or TC/MD database at seed 7
// into one reused record (record/<class>), which is what every load, U1
// and U2 parses and what Xcolumn's CLOB operators parse. MB/s is per
// input byte. It is the profiling handle for that path:
//
//	go test -run '^$' -bench Parse/record/dcmd -cpuprofile cpu.out .
func BenchmarkParse(b *testing.B) {
	var dbs []*core.Database
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Normal)
		if err != nil {
			b.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	b.Run("record", func(b *testing.B) {
		for _, db := range dbs {
			b.Run(db.Class.Code(), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(db.Bytes()))
				var rec xmldom.Record
				for i := 0; i < b.N; i++ {
					for _, d := range db.Docs {
						if err := xmldom.ParseRecord(&rec, d.Data); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	})
}
