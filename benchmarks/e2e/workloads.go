package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/router"
	"xbench/internal/server"
	"xbench/internal/workload"
)

// probeMix is served_read's query mix: the four point queries that cost
// 15–50 µs in-process on the relational engines, so that what the
// workload measures is the per-request overhead around them.
var probeMix = []core.QueryID{core.Q1, core.Q5, core.Q8, core.Q16}

// perEngine collects each leg's values by short metric name and engine
// key. An end-to-end value is the geometric mean of the four engines'
// values, so a tenfold gain on one engine moves it 1.78x and no engine
// drowns the others; traced runs also report each engine's own value as
// engines.<e>.<name>.
type perEngine map[string]map[string]float64

func (p perEngine) set(name, key string, v float64) {
	if p[name] == nil {
		p[name] = map[string]float64{}
	}
	p[name][key] = v
}

func (p perEngine) geomean(name string) float64 {
	var xs []float64
	for _, key := range engineKeys {
		xs = append(xs, p[name][key])
	}
	return geomean(xs)
}

// engineLayerMetrics are the per-engine values a traced run reports as
// engines.<e>.<name>.
var engineLayerMetrics = []string{
	"load_s", "index_s", "exec_p50_us", "exec_p99_us", "qps",
	"u1_p50_ms", "u2_p50_ms", "u3_p50_ms",
	"cold_ms", "cold_pages", "space_amp", "recovery_s",
}

// generate builds the workload's database from the run's seed, setupReps
// times, and returns it with the median generation time.
func (r *run) generate(class core.Class, size core.Size, parent int32) (*core.Database, time.Duration, error) {
	if r.cfg.quick {
		size = core.Small
	}
	var db *core.Database
	var times []float64
	for i := 0; i < r.setupReps; i++ {
		sp := r.tr.begin("gen.Generate", parent, 0)
		t0 := time.Now()
		var err error
		db, err = gen.Config{Seed: r.cfg.seed}.Generate(class, size)
		times = append(times, float64(time.Since(t0)))
		r.tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("generate %s %s: %w", class, size, err)
		}
	}
	return db, time.Duration(median(times)), nil
}

// legCtx is what the four workloads share while they run their legs.
type legCtx struct {
	vals perEngine
	// setup accumulates the median set-up time of every leg plus
	// generation: the run's setup_s.
	setup time.Duration
	// xmlBytes is the size of the generated input, for load_mb_s and
	// gen.generate_mb_s.
	xmlBytes int
	layers   *layerAcc
	root     int32
}

// noteSetup records a leg's set-up medians and the load-side per-engine
// values every workload has: load throughput and space amplification.
func (lc *legCtx) noteSetup(s *stack, setup, loadIndex time.Duration) {
	lc.setup += setup
	lc.vals.set("load_mb_s", s.key, float64(lc.xmlBytes)/1e6/loadIndex.Seconds())
	lc.vals.set("space_amp", s.key, float64(s.storedBytes())/float64(lc.xmlBytes))
	lc.vals.set("load_s", s.key, s.load.Seconds())
	lc.vals.set("index_s", s.key, s.index.Seconds())
	if s.stats.Rows > 0 && s.stats.Documents > 0 {
		lc.vals.set("rows_per_doc", s.key, float64(s.stats.Rows)/float64(s.stats.Documents))
	}
}

// noteLeg records the latency and throughput values of a timed leg.
func (lc *legCtx) noteLeg(key string, l *legSamples) {
	lc.vals.set("qps", key, l.medianRate())
	lc.vals.set("wall_qps", key, l.qps())
	lc.vals.set("read_p50_ms", key, typedP50(l.reads)/1e6)
	if v, ok := tail(l.allReads(), 0.99); ok {
		lc.vals.set("read_p99_ms", key, v/1e6)
	}
	if len(l.ups) == 0 {
		return
	}
	lc.vals.set("update_p50_ms", key, typedP50(l.ups)/1e6)
	if v, ok := tail(l.allUpdates(), 0.95); ok {
		lc.vals.set("update_p95_ms", key, v/1e6)
	}
	lc.vals.set("u1_p50_ms", key, median(l.ups[workload.U1])/1e6)
	lc.vals.set("u2_p50_ms", key, median(l.ups[workload.U2])/1e6)
	lc.vals.set("u3_p50_ms", key, median(l.ups[workload.U3])/1e6)
}

// report turns the collected per-engine values into the run's metrics:
// end-to-end geomeans untraced, the per-layer list traced.
func (r *run) report(lc *legCtx, genTime time.Duration) {
	r.tr.end(lc.root)
	if !r.cfg.trace {
		r.set("setup_s", (lc.setup + genTime).Seconds(), 0)
		for _, name := range []string{"space_amp", "qps", "read_p50_ms"} {
			r.set(name, lc.vals.geomean(name), 0)
		}
		return
	}
	for _, name := range engineLayerMetrics {
		for _, key := range engineKeys {
			r.set("engines."+key+"."+name, lc.vals[name][key], 0)
		}
	}
	r.set("qps_wall", lc.vals.geomean("wall_qps"), 0)
	// The workload-specific user-visible numbers, which cannot be
	// end-to-end metrics because not every workload has them.
	for _, name := range []string{"load_mb_s", "read_p99_ms", "update_p50_ms", "update_p95_ms", "open_p50_ms", "open_p99_ms", "cold_ms", "cold_pages", "recovery_s"} {
		r.set(name, lc.vals.geomean(name), 0)
	}
	r.set("gen.generate_mb_s", float64(lc.xmlBytes)/1e6/genTime.Seconds(), 0)
	r.set("shredder.rows_per_doc", lc.vals.geomean("rows_per_doc"), 0)
	r.set("failed_share", float64(r.failed)/float64(max(r.attempted, 1)), 0)
	lc.layers.report(r)
}

// mainClients is the client count of a workload's main leg: two, or one
// on a traced run so that every count repeats exactly.
func (r *run) mainClients() int {
	if r.cfg.trace {
		return 1
	}
	return clients
}

// mainOps scales a main leg's frozen op count to the run. A traced run
// issues a third: it replays the leg a second time untraced, and has the
// ladder and the probes to fit in the same wall time.
func (r *run) mainOps(frozen, min int) int {
	if r.cfg.trace {
		frozen /= 3
	}
	return scaled(frozen, r.scale, min)
}

// preseed inserts each client's starting documents, untimed.
func (r *run) preseed(s *stack, ups []*updater) {
	for _, u := range ups {
		for i := 0; i < preseedDocs; i++ {
			_, _, err := u.apply(r, s.front, workload.U1)
			r.check(err == nil, "%s preseed: %v", s.key, err)
		}
	}
}

// mixedLeg runs one engine's read/write leg: warm-up with the answer
// check, preseed, the timed closed loop, then the probe of every
// acknowledged update.
func (r *run) mixedLeg(lc *legCtx, s *stack, class core.Class, blockLen, ops int) (*legSamples, []*updater, []core.QueryID) {
	mix, _ := r.warmup(s, class, workload.QueryIDs(class))
	n := r.mainClients()
	ups := newUpdaters(class, n)
	r.preseed(s, ups)
	ls := loopSpec{
		s: s, params: workload.Params(class), ups: ups,
		streams: mixedStreams(r.cfg.seed, n, mix, blockLen, r.mainOps(ops, blockLen*n)),
	}
	leg := r.timedLeg(lc, ls)
	r.probeUpdates(s.front, ups, nil)
	lc.noteLeg(s.key, leg)
	return leg, ups, mix
}

// timedLeg runs a client loop under a leg span. On a traced run it also
// takes the engine registry's delta across the loop, and replays the
// streams once more with tracing off to price the tracing itself.
func (r *run) timedLeg(lc *legCtx, ls loopSpec) *legSamples {
	sp := r.tr.begin("leg:"+ls.s.key, lc.root, 0)
	ls.parent = sp
	before := lc.layers.snapshot(ls.s)
	leg := r.runLoop(ls)
	lc.layers.delta(ls.s, before, leg)
	r.tr.end(sp)
	fmt.Fprintf(r.cfg.out, "leg %-12s %7d ops in %8.3fs = %9.1f ops/s; %6d reads typed-p50 %8.4f ms; %5d updates typed-p50 %8.3f ms\n",
		ls.s.key, leg.ops, leg.wall.Seconds(), leg.qps(), len(leg.allReads()), typedP50(leg.reads)/1e6, len(leg.allUpdates()), typedP50(leg.ups)/1e6)
	if r.tr != nil {
		tr := r.tr
		r.tr = nil
		plain := r.runLoop(ls)
		r.tr = tr
		lc.layers.tracedQPS = append(lc.layers.tracedQPS, leg.qps())
		lc.layers.plainQPS = append(lc.layers.plainQPS, plain.qps())
	}
	return leg
}

func (r *run) planFor(key string) legPlan { return legPlans[r.cfg.workload][key] }

// smallWorkload is the frame the three DC/MD Small workloads share:
// generate, then per engine set the stack up (median of setupReps), run
// the workload's leg, climb the ladder on a traced run, tear down.
func (r *run) smallWorkload(build func(key string, db *core.Database, n int, parent int32) (*stack, error), leg func(lc *legCtx, s *stack, db *core.Database) error) error {
	lc := r.newLegCtx()
	db, genTime, err := r.generate(core.DCMD, core.Small, lc.root)
	if err != nil {
		return err
	}
	lc.xmlBytes = db.Bytes()
	for _, key := range engineKeys {
		sp := r.tr.begin("setup:"+key, lc.root, 0)
		builds := 0
		s, setup, li, err := r.setupMedian(func() (*stack, error) {
			builds++
			return build(key, db, builds, sp)
		})
		r.tr.end(sp)
		if err != nil {
			return err
		}
		lc.noteSetup(s, setup, li)
		err = leg(lc, s, db)
		s.close(r)
		if err != nil {
			return err
		}
	}
	if r.cfg.trace {
		r.probes(lc, db)
	}
	r.report(lc, genTime)
	return nil
}

// engineMixed: DC/MD Small in-process, two closed-loop clients, the
// full query mix with a 50 % share of U1–U3.
func (r *run) engineMixed() error {
	return r.smallWorkload(
		func(key string, db *core.Database, _ int, parent int32) (*stack, error) {
			return r.buildInproc(key, db, 0, parent)
		},
		func(lc *legCtx, s *stack, db *core.Database) error {
			r.mixedLeg(lc, s, db.Class, blockHalfUpdates, r.planFor(s.key).ops)
			if r.cfg.trace {
				r.rungs(lc, db, s, nil)
			}
			return nil
		})
}

// servedRead: DC/MD Small behind a loopback server and a pipelined
// client, read-only probe mix; a closed-loop phase, then an open-loop
// phase at a frozen rate.
func (r *run) servedRead() error {
	return r.smallWorkload(
		func(key string, db *core.Database, _ int, parent int32) (*stack, error) {
			return r.buildServed(key, db, parent)
		},
		func(lc *legCtx, s *stack, db *core.Database) error {
			params := workload.Params(db.Class)
			answered, counts := r.warmup(s, db.Class, workload.QueryIDs(db.Class))
			mix := intersect(probeMix, answered)
			plan := r.planFor(s.key)
			n := r.mainClients()

			closed := r.timedLeg(lc, loopSpec{
				s: s, params: params, expect: counts,
				streams: readStreams(r.cfg.seed, n, mix, r.mainOps(plan.ops, 40*n)),
			})
			lc.noteLeg(s.key, closed)

			// Open loop: another seed, so the phase is not a replay of what
			// the closed phase just left in every cache.
			open := r.runLoop(loopSpec{
				s: s, params: params, expect: counts, parent: lc.root,
				streams:  readStreams(r.cfg.seed+1, clients, mix, scaled(plan.openOps, r.scale, 40*clients)),
				interval: time.Duration(float64(clients) / plan.openRate * float64(time.Second)),
			})
			lc.vals.set("open_p50_ms", s.key, median(open.allReads())/1e6)
			if v, ok := tail(open.allReads(), 0.99); ok {
				lc.vals.set("open_p99_ms", s.key, v/1e6)
			}
			lc.layers.late = append(lc.layers.late, open.late...)

			if r.cfg.trace {
				r.rungs(lc, db, s, nil)
			}
			return nil
		})
}

// routedShards is routed_mixed's shard count.
const routedShards = 3

// routedMixed: DC/MD Small partitioned over three journaled shard
// servers behind a router, full mix with a 10 % share of U1–U3, then a
// timed recovery of shard 0 from its journal alone.
func (r *run) routedMixed() error {
	return r.smallWorkload(
		func(key string, db *core.Database, n int, parent int32) (*stack, error) {
			// Every build gets journal files of its own.
			dir := filepath.Join(r.cfg.scratch, fmt.Sprintf("%s-%d", key, n))
			return r.buildRouted(key, db, routedShards, dir, parent)
		},
		func(lc *legCtx, s *stack, db *core.Database) error {
			_, ups, mix := r.mixedLeg(lc, s, db.Class, blockTenthUpdates, r.planFor(s.key).ops)
			if r.cfg.trace {
				r.rungs(lc, db, s, mix)
			}
			return r.recoverShard0(lc, s, db, ups)
		})
}

// recoverShard0 abandons shard 0's server and engine, brings a fresh
// engine up with server.Reopen from the shard's journal file alone, and
// probes it for every acknowledged update it owns. The time from Reopen
// to a listening server is the leg's recovery_s.
func (r *run) recoverShard0(lc *legCtx, s *stack, db *core.Database, ups []*updater) error {
	if err := s.servers[0].Close(); err != nil {
		return fmt.Errorf("%s shard 0 close: %w", s.key, err)
	}
	s.closers[0] = func() error { return nil } // already closed
	journalBytes := int64(0)
	for _, j := range s.journals {
		if fi, err := os.Stat(j); err == nil {
			journalBytes += fi.Size()
		}
	}
	ring := router.NewRing(routedShards, 0)
	owned := 0
	for _, u := range ups {
		for seq := range u.final {
			name, _ := workload.UpdateDoc(u.class, seq, 0)
			if ring.Owner(name) == 0 {
				owned++
			}
		}
	}

	e, err := r.newEngine(s.key, 0, nil)
	if err != nil {
		return err
	}
	sp := r.tr.begin("server.Reopen", lc.root, 0)
	t0 := time.Now()
	srv, replayed, err := server.Reopen(e, s.parts[0], workload.Indexes(db.Class), s.journals[0], server.Config{})
	if err == nil {
		err = srv.Start()
	}
	recovery := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		e.Close()
		return fmt.Errorf("%s shard 0 recovery: %w", s.key, err)
	}
	defer srv.Close()
	lc.vals.set("recovery_s", s.key, recovery.Seconds())
	// Every document shard 0 owns was written at least once, so an empty
	// replay with owned documents means the journal lost them.
	r.check(owned == 0 || replayed >= owned, "%s shard 0 replayed %d records for %d owned documents", s.key, replayed, owned)
	r.probeUpdates(e, ups, func(name string) bool { return ring.Owner(name) == 0 })
	lc.layers.noteJournal(journalBytes, ups, replayed, recovery)
	return nil
}

// paperCold: the paper's own measurement. DC/MD and TC/MD at Normal with
// a 64-page pool (0.5 MB, far smaller than the data), one client: timed
// bulk load and index build, then every class query run cold.
func (r *run) paperCold() error {
	lc := r.newLegCtx()
	const coldPool = 64
	// A set-up here is ten times the other workloads' (Normal, not Small):
	// three repeats instead of five keep the run inside its time budget.
	r.setupReps = min(r.setupReps, 3)
	var dbs []*core.Database
	var genTime time.Duration
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		db, t, err := r.generate(class, core.Normal, lc.root)
		if err != nil {
			return err
		}
		dbs = append(dbs, db)
		genTime += t
		lc.xmlBytes += db.Bytes()
	}
	for _, key := range engineKeys {
		passes := r.mainOps(r.planFor(key).ops, 1)
		var setup, loadIndex time.Duration
		var stored int64
		var cellMedians []float64
		var coldPages float64
		var stacks []*stack
		for _, db := range dbs {
			sp := r.tr.begin("setup:"+key, lc.root, 0)
			var storedPerBuild []int64
			s, su, li, err := r.setupMedian(func() (*stack, error) {
				s, err := r.buildInproc(key, db, coldPool, sp)
				if err == nil {
					storedPerBuild = append(storedPerBuild, s.storedBytes())
				}
				return s, err
			})
			r.tr.end(sp)
			if err != nil {
				return err
			}
			for _, b := range storedPerBuild {
				r.check(b == storedPerBuild[0], "%s %s: stored bytes differ across load passes: %v", key, db.Class, storedPerBuild)
			}
			stacks = append(stacks, s)
			setup += su
			loadIndex += li
			stored += s.storedBytes()
			lc.vals.set("load_s", key, lc.vals["load_s"][key]+s.load.Seconds())
			lc.vals.set("index_s", key, lc.vals["index_s"][key]+s.index.Seconds())
			if s.stats.Rows > 0 {
				lc.vals.set("rows_per_doc", key, float64(s.stats.Rows)/float64(s.stats.Documents))
			}

			mix, counts := r.warmup(s, db.Class, workload.QueryIDs(db.Class))
			legSpan := r.tr.begin("leg:"+key, lc.root, 0)
			before := lc.layers.snapshot(s)
			cells, pages := r.coldPasses(s, db.Class, mix, counts, passes, legSpan)
			executed := 0
			for q, xs := range cells {
				cellMedians = append(cellMedians, median(xs))
				lc.layers.noteColdCell(db.Class, q, median(xs))
				executed += len(xs)
			}
			coldPages += pages
			lc.layers.delta(s, before, &legSamples{reads: cells, ops: executed})
			r.tr.end(legSpan)
		}
		lc.setup += setup
		lc.vals.set("load_mb_s", key, float64(lc.xmlBytes)/1e6/loadIndex.Seconds())
		lc.vals.set("space_amp", key, float64(stored)/float64(lc.xmlBytes))
		// One pass over the classes' queries costs the sum of the cells'
		// median cold times; qps is cells per second of that.
		var sum float64
		for _, m := range cellMedians {
			sum += m
		}
		lc.vals.set("cold_ms", key, sum/1e6)
		lc.vals.set("cold_pages", key, coldPages)
		lc.vals.set("qps", key, float64(len(cellMedians))/(sum/1e9))
		lc.vals.set("wall_qps", key, float64(len(cellMedians))/(sum/1e9))
		lc.vals.set("read_p50_ms", key, geomean(cellMedians)/1e6)
		fmt.Fprintf(r.cfg.out, "leg %-12s %d cold passes over %d cells: one pass %8.3f ms, %6.0f pages; load+index %6.3fs\n",
			key, passes, len(cellMedians), sum/1e6, coldPages, loadIndex.Seconds())
		if r.cfg.trace {
			r.rungs(lc, dbs[0], stacks[0], nil)
		}
		for _, s := range stacks {
			s.close(r)
		}
	}
	if r.cfg.trace {
		r.probes(lc, dbs[0])
	}
	r.report(lc, genTime)
	return nil
}

// coldPasses runs every query of mix cold `passes` times: caches dropped
// before each execution, wall clock only. It returns each query's cold
// latencies and the page I/O of one pass, which must not vary between
// passes: the pager's disk is simulated and the data is fixed.
func (r *run) coldPasses(s *stack, class core.Class, mix []core.QueryID, counts map[core.QueryID]int, passes int, parent int32) (map[core.QueryID][]float64, float64) {
	params := workload.Params(class)
	cells := map[core.QueryID][]float64{}
	pagesOf := map[core.QueryID]int64{}
	e := s.front
	for pass := 0; pass < passes; pass++ {
		for i, q := range mix {
			e.ColdReset()
			io0 := e.PageIO()
			sp := r.tr.begin("engine.Execute", parent, int64(pass*len(mix)+i)+1)
			t0 := time.Now()
			res, err := e.Execute(r.ctx, q, params)
			d := time.Since(t0)
			r.tr.end(sp)
			pages := e.PageIO() - io0
			r.attempt(1)
			switch {
			case err != nil:
				r.failf("%s cold %s %s: %v", s.key, class, q, err)
				continue
			case len(res.Items) != counts[q]:
				r.failf("%s cold %s %s: %d items, warm-up answered %d", s.key, class, q, len(res.Items), counts[q])
				continue
			}
			if pass == 0 {
				pagesOf[q] = pages
			} else {
				r.check(pages == pagesOf[q], "%s cold %s %s: %d pages on pass %d, %d on pass 0", s.key, class, q, pages, pass, pagesOf[q])
			}
			cells[q] = append(cells[q], float64(d))
		}
	}
	var total int64
	for _, p := range pagesOf {
		total += p
	}
	return cells, float64(total)
}

func (r *run) newLegCtx() *legCtx {
	return &legCtx{vals: perEngine{}, layers: newLayerAcc(), root: r.tr.begin("workload:"+r.cfg.workload, noSpan, 0)}
}
