package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xbench"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/router"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
	"xbench/internal/workload"
	"xbench/internal/xmldom"
)

// This file is the traced run's outside-in view of the layers. Nothing
// here reaches into a package: every number is a call into an exported
// function timed from this side, a registry the program already exposes
// read before and after a leg, or one rung of the ladder subtracted from
// the next.

// rungNames are the ladder's rungs, bottom up: the same read-only probe
// stream issued straight at the engine, through a loopback server, through
// a router over one shard, and through a router over three.
var rungNames = []string{"inproc", "wire", "router1", "router3"}

// layerAcc accumulates per-layer observations over the engines' legs.
type layerAcc struct {
	counters map[string]int64   // registry counter deltas, summed
	phaseNS  map[string]float64 // phase.<x>.ns deltas, summed
	height   int64              // btree.height is a gauge: the maximum
	// probeVisits/probes pair btree visits with relational index probes
	// on the engines that count both.
	probeVisits, probes int64
	execNS              float64 // Σ timed Execute latencies of the main legs
	reads, updates, ops int
	server              map[string]int64 // server.req.* deltas
	failovers           uint64

	// rung holds each engine's typed p50 (ns) per rung; rungP99 the
	// pooled p99 where enough samples exist.
	rung, rungP99 map[string]map[string]float64
	scatter       map[string]map[string]float64 // rung -> engine -> scatter p50 ns
	routed        map[string]float64            // engine -> routed (Q16) p50 ns at router3
	routerCount   map[string]int64              // routed/scatter/errors summed over shards
	imbalance     []float64

	explainNS []float64
	late      []float64
	coldCells map[core.QueryID][]float64 // DC/MD cold medians per engine, ns

	tracedQPS, plainQPS []float64

	journalBytes, journalUpdates float64
	replayMS, replayRecords      float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		counters: map[string]int64{}, phaseNS: map[string]float64{}, server: map[string]int64{},
		rung: map[string]map[string]float64{}, rungP99: map[string]map[string]float64{},
		scatter: map[string]map[string]float64{}, routed: map[string]float64{},
		routerCount: map[string]int64{}, coldCells: map[core.QueryID][]float64{},
	}
}

// stackSnap is the registries of a stack at one instant.
type stackSnap struct {
	eng    metrics.Snapshot
	srv    []metrics.Snapshot
	router metrics.Snapshot
}

// snapshot reads the stack's registries before a leg. Untraced stacks
// carry no registry and the accumulator stays empty.
func (a *layerAcc) snapshot(s *stack) stackSnap {
	var sn stackSnap
	if s.reg == nil {
		return sn
	}
	sn.eng = s.reg.Snapshot()
	for _, srv := range s.servers {
		sn.srv = append(sn.srv, srv.Metrics().Snapshot())
	}
	if rt, ok := s.front.(*router.Router); ok {
		sn.router = rt.Metrics().Snapshot()
	}
	return sn
}

// delta adds what the leg did at every instrumented layer.
func (a *layerAcc) delta(s *stack, before stackSnap, leg *legSamples) {
	if s.reg == nil {
		return
	}
	b := s.reg.Snapshot().Delta(before.eng)
	for name, v := range b.Counters {
		if metrics.IsGauge(name) {
			a.height = max(a.height, v)
			continue
		}
		a.counters[name] += v
	}
	for name, d := range b.Phases {
		a.phaseNS[name] += float64(d)
	}
	if p := b.Counters["relational.probe"]; p > 0 {
		a.probes += p
		a.probeVisits += b.Counters["btree.visit"]
	}
	for i, srv := range s.servers {
		sb := srv.Metrics().Snapshot().Delta(before.srv[i])
		for _, name := range []string{"server.req.admitted", "server.req.rejected", "server.req.deduped"} {
			a.server[name] += sb.Counters[name]
		}
	}
	switch front := s.front.(type) {
	case *client.Client:
		a.failovers += front.Failovers()
	case *router.Router:
		a.routerDelta(front, before.router)
	}
	for _, xs := range leg.reads {
		a.reads += len(xs)
		for _, x := range xs {
			a.execNS += x
		}
	}
	for _, xs := range leg.ups {
		a.updates += len(xs)
	}
	a.ops += leg.ops
}

// routerDelta adds what the leg did at the router: requests routed and
// scattered per shard, shard errors, and how unevenly the shards were
// loaded. Warm-up is excluded (its semantic declines — a query an engine
// does not answer — count as shard errors).
func (a *layerAcc) routerDelta(rt *router.Router, before metrics.Snapshot) {
	d := rt.Metrics().Snapshot().Delta(before).Counters
	var load []float64
	for i := 0; i < rt.Shards(); i++ {
		pfx := fmt.Sprintf("router.shard.%d.", i)
		a.routerCount["routed"] += d[pfx+"routed"]
		a.routerCount["scatter"] += d[pfx+"scatter"]
		a.routerCount["errors"] += d[pfx+"errors"]
		a.failovers += uint64(d[pfx+"failovers"])
		load = append(load, float64(d[pfx+"routed"]+d[pfx+"scatter"]))
	}
	var sum, most float64
	for _, l := range load {
		sum += l
		most = max(most, l)
	}
	if sum > 0 {
		a.imbalance = append(a.imbalance, most/(sum/float64(len(load))))
	}
}

func (a *layerAcc) noteJournal(journalBytes int64, ups []*updater, replayed int, recovery time.Duration) {
	for _, u := range ups {
		a.journalUpdates += float64(u.acked)
	}
	a.journalBytes += float64(journalBytes)
	a.replayMS += ms(recovery)
	a.replayRecords += float64(replayed)
}

func (a *layerAcc) noteColdCell(class core.Class, q core.QueryID, medianNS float64) {
	if class == core.DCMD {
		a.coldCells[q] = append(a.coldCells[q], medianNS)
	}
}

func (a *layerAcc) setRung(rung, key string, l *legSamples) {
	if a.rung[rung] == nil {
		a.rung[rung], a.rungP99[rung] = map[string]float64{}, map[string]float64{}
	}
	a.rung[rung][key] = typedP50(l.reads)
	if v, ok := tail(l.allReads(), 0.99); ok {
		a.rungP99[rung][key] = v
	}
}

// acrossEngines is the ladder's summary of one per-engine quantity: the
// median over the engines that have it. The ladder isolates overheads of
// tens of microseconds, which the native engine's 2 ms queries bury in
// their own run-to-run noise; a geometric mean would let that noise in,
// the median reads a relational engine.
func acrossEngines(byKey map[string]float64) float64 {
	var xs []float64
	for _, key := range engineKeys {
		if v, ok := byKey[key]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func rungDiff(upper, lower map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for key, u := range upper {
		if l, ok := lower[key]; ok {
			out[key] = u - l
		}
	}
	return out
}

// report writes the per-layer metrics.
func (a *layerAcc) report(r *run) {
	c := a.counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	r.set("pager.hit_rate", ratio(float64(c["pager.hit"]), float64(c["pager.hit"]+c["pager.read"])), 0)
	for _, name := range []string{"pager.read", "pager.write", "pager.evict", "pager.wal.append", "pager.snap.read.version", "btree.split", "relational.probe"} {
		r.set(name, float64(c[name]), 0)
	}
	r.set("pager.readahead.hit_rate", ratio(float64(c["pager.readahead.hit"]), float64(c["pager.readahead.issued"])), 0)
	r.set("pager.snap.capture_per_update", ratio(float64(c["pager.snap.capture"]), float64(a.updates)), 0)
	r.set("btree.visit_per_probe", ratio(float64(a.probeVisits), float64(a.probes)), 0)
	r.set("btree.height", float64(a.height), 0)
	r.set("relational.scan_rows_per_result", ratio(float64(c["relational.scan.row"]), float64(a.reads)), 0)

	var phases float64
	for _, ph := range []string{metrics.PhaseParse, metrics.PhasePlan, metrics.PhaseIndexProbe, metrics.PhaseScan, metrics.PhaseMaterialize, metrics.PhaseEval} {
		r.set("phase."+ph+"_ms", a.phaseNS[ph]/1e6, 0)
		phases += a.phaseNS[ph]
	}
	r.set("phase.coverage", ratio(phases, a.execNS), 0)

	for name, v := range a.server {
		r.set(name, float64(v), 0)
	}
	r.set("client.failovers", float64(a.failovers), 0)
	r.set("driver.ops", float64(a.ops), 0)
	if v, ok := tail(a.late, 0.99); ok {
		r.set("driver.lateness_p99_ms", v/1e6, len(a.late))
	}
	r.set("plan.explain_p50_us", median(a.explainNS)/1e3, len(a.explainNS))
	if len(a.tracedQPS) > 0 {
		r.set("metrics.trace_overhead_pct", (geomean(a.plainQPS)/geomean(a.tracedQPS)-1)*100, 0)
	}

	for _, q := range []core.QueryID{core.Q5, core.Q8, core.Q12, core.Q14, core.Q17} {
		r.set(fmt.Sprintf("queries.q%d_cold_ms", int(q)), geomean(a.coldCells[q])/1e6, 0)
	}

	for _, name := range rungNames {
		r.set("rung."+name+"_p50_us", acrossEngines(a.rung[name])/1e3, 0)
	}
	if a.rung["wire"] != nil {
		r.set("wire.rtt_p50_us", acrossEngines(rungDiff(a.rung["wire"], a.rung["inproc"]))/1e3, 0)
		r.set("wire.rtt_p99_us", acrossEngines(rungDiff(a.rungP99["wire"], a.rungP99["inproc"]))/1e3, 0)
	}
	if a.rung["router3"] != nil {
		r.set("router.overhead_p50_us", acrossEngines(rungDiff(a.rung["router1"], a.rung["wire"]))/1e3, 0)
		r.set("router.scatter_p50_ms", acrossEngines(a.scatter["router3"])/1e6, 0)
		r.set("router.routed_p50_ms", acrossEngines(a.routed)/1e6, 0)
		fan := map[string]float64{}
		for key, s3 := range a.scatter["router3"] {
			if s1 := a.scatter["router1"][key]; s1 > 0 {
				fan[key] = s3 / s1
			}
		}
		r.set("router.fanout_ratio", acrossEngines(fan), 0)
		r.set("router.shard.routed", float64(a.routerCount["routed"]), 0)
		r.set("router.shard.scatter", float64(a.routerCount["scatter"]), 0)
		r.set("router.shard.errors", float64(a.routerCount["errors"]), 0)
		r.set("router.load_imbalance", geomean(a.imbalance), 0)
		r.set("updatelog.journal_bytes_per_update", ratio(a.journalBytes, a.journalUpdates), 0)
		r.set("updatelog.replay_ms_per_record", ratio(a.replayMS, a.replayRecords), 0)

		// The ladder must account for the top rung: the bottom rung plus
		// the adjacent differences is compared with it here, in the open.
		top := acrossEngines(a.rung["router3"])
		sum := acrossEngines(a.rung["inproc"]) +
			acrossEngines(rungDiff(a.rung["wire"], a.rung["inproc"])) +
			acrossEngines(rungDiff(a.rung["router1"], a.rung["wire"])) +
			acrossEngines(rungDiff(a.rung["router3"], a.rung["router1"]))
		fmt.Fprintf(r.cfg.out, "ladder: inproc + differences = %.1f us, top rung = %.1f us (%.1f%% apart)\n",
			sum/1e3, top/1e3, 100*(sum-top)/top)
	}
}

// rungOps is the ladder's stream length per rung: enough samples for a
// p99 on the relational engines, a tenth of that on the native engine,
// whose probe queries cost 2 ms each.
func (r *run) rungOps(key string) int {
	n := 3000
	if key == "native" {
		n = 300
	}
	return scaled(n, r.scale, 40)
}

// rungs replays one seeded read-only probe stream, one client, at every
// rung the workload's stack has. mix is the engine's answered mix when
// the caller already knows it (nil: ask the engine).
func (r *run) rungs(lc *legCtx, db *core.Database, s *stack, mix []core.QueryID) {
	a := lc.layers
	inproc := s.engines[0]
	if mix == nil {
		for _, q := range workload.QueryIDs(db.Class) {
			if _, err := inproc.Execute(r.ctx, q, workload.Params(db.Class)); err == nil {
				mix = append(mix, q)
			}
		}
	}
	mix = intersect(probeMix, mix)
	params := workload.Params(db.Class)
	streams := readStreams(r.cfg.seed+2, 1, mix, r.rungOps(s.key))
	at := func(rung string, front core.Engine, frontName string) *legSamples {
		sp := r.tr.begin("rung:"+rung, lc.root, 0)
		leg := r.runLoop(loopSpec{s: &stack{key: s.key, front: front, frontName: frontName}, params: params, streams: streams, parent: sp})
		r.tr.end(sp)
		a.setRung(rung, s.key, leg)
		return leg
	}
	noteRouter := func(rung string, leg *legSamples) {
		scatter := map[core.QueryID][]float64{}
		for q, xs := range leg.reads {
			if q != core.Q16 {
				scatter[q] = xs
			}
		}
		if a.scatter[rung] == nil {
			a.scatter[rung] = map[string]float64{}
		}
		a.scatter[rung][s.key] = typedP50(scatter)
		if rung == "router3" {
			a.routed[s.key] = median(leg.reads[core.Q16])
		}
	}

	switch s.frontName {
	case "engine":
		r.noteExec(lc, s.key, at("inproc", inproc, "engine"))
	case "client":
		r.noteExec(lc, s.key, at("inproc", inproc, "engine"))
		at("wire", s.front, "client")
	case "router":
		// The lower rungs need the whole database behind one server.
		one, err := r.buildServed(s.key, db, lc.root)
		if err != nil {
			r.check(false, "%s ladder: %v", s.key, err)
			return
		}
		defer one.close(r)
		r.noteExec(lc, s.key, at("inproc", one.engines[0], "engine"))
		at("wire", one.front, "client")
		rt, err := router.Dial([]router.Shard{{Primary: one.servers[0].Addr().String()}}, router.Config{Client: pipelined})
		if err != nil {
			r.check(false, "%s ladder router(1): %v", s.key, err)
			return
		}
		defer rt.Close()
		noteRouter("router1", at("router1", rt, "router"))
		noteRouter("router3", at("router3", s.front, "router"))
		inproc = one.engines[0]
	}

	// plan: time the planner alone, per mix query, on the loaded engine.
	for _, q := range mix {
		for i := 0; i < 20; i++ {
			sp := r.tr.begin("core.Explain", lc.root, 0)
			t0 := time.Now()
			_, err := core.Explain(r.ctx, inproc, q, params)
			d := time.Since(t0)
			r.tr.end(sp)
			if err != nil {
				break // engine or query without a plan: nothing to time
			}
			a.explainNS = append(a.explainNS, float64(d))
		}
	}
}

// noteExec records an engine's in-process Execute latency.
func (r *run) noteExec(lc *legCtx, key string, leg *legSamples) {
	lc.vals.set("exec_p50_us", key, typedP50(leg.reads)/1e3)
	if v, ok := tail(leg.allReads(), 0.99); ok {
		lc.vals.set("exec_p99_us", key, v/1e3)
	}
}

// probes times the layers that are functions rather than servers, on the
// workload's own data, and prices the benchmark's own loop.
func (r *run) probes(lc *legCtx, db *core.Database) {
	root := r.tr.begin("probes", lc.root, 0)
	defer r.tr.end(root)

	// xmldom: parse and re-serialize the generated documents (at most
	// ~1 MB of them: the rate is what is reported, not the total).
	var parsed []*xmldom.Node
	var nbytes int
	sp := r.tr.begin("xmldom.Parse", root, 0)
	t0 := time.Now()
	for _, d := range db.Docs {
		n, err := xmldom.Parse(d.Data)
		if err != nil {
			r.check(false, "xmldom.Parse %s: %v", d.Name, err)
			continue
		}
		parsed = append(parsed, n)
		if nbytes += len(d.Data); nbytes > 1<<20 {
			break
		}
	}
	parse := time.Since(t0)
	r.tr.end(sp)
	sp = r.tr.begin("xmldom.XMLBytes", root, 0)
	t0 = time.Now()
	out := 0
	for _, n := range parsed {
		out += len(n.XMLBytes())
	}
	ser := time.Since(t0)
	r.tr.end(sp)
	r.set("xmldom.parse_mb_s", float64(nbytes)/1e6/parse.Seconds(), 0)
	r.set("xmldom.serialize_mb_s", float64(out)/1e6/ser.Seconds(), 0)

	// xquery: compile and evaluate one frozen query over the first
	// documents, through the public facade.
	docs := db.Docs
	if len(docs) > 50 {
		docs = docs[:50]
	}
	var evals []float64
	for i := 0; i < 5; i++ {
		sp := r.tr.begin("xbench.EvalXQuery", root, 0)
		t0 := time.Now()
		_, err := xbench.EvalXQuery(`for $o in //order[total > 0] order by $o/@id return $o/total`, docs, nil)
		evals = append(evals, float64(time.Since(t0)))
		r.tr.end(sp)
		r.check(err == nil, "EvalXQuery: %v", err)
	}
	r.set("xquery.compile_eval_ms", median(evals)/1e6, len(evals))

	// driver: the client loop against an engine that does nothing.
	n := scaled(200000, r.scale, 1000)
	tr := r.tr
	r.tr = nil
	leg := r.runLoop(loopSpec{
		s:       &stack{key: "null", front: nullEngine{}, frontName: "engine"},
		streams: readStreams(r.cfg.seed, 1, probeMix, n),
	})
	r.tr = tr
	r.set("driver.loop_overhead_ns", float64(leg.wall)/float64(leg.ops), leg.ops)

	switch r.cfg.workload {
	case "served_read", "routed_mixed":
		r.wireProbe(root, db.Class)
	}
	if r.cfg.workload == "routed_mixed" {
		r.journalProbe(root, db.Class)
	}
}

// wireProbe times the codec alone on the probe stream's real payloads:
// request encode + frame + unframe + decode, and the same for the native
// engine's warm-up answers as responses.
func (r *run) wireProbe(parent int32, class core.Class) {
	params := workload.Params(class)
	var ops, nbytes int
	sp := r.tr.begin("wire.codec", parent, 0)
	t0 := time.Now()
	for i := 0; i < scaled(2000, r.scale, 20); i++ {
		for _, q := range probeMix {
			res, ok := r.ref[refKey{class, q}]
			if !ok {
				continue
			}
			buf, err := wire.AppendFrame(nil, wire.Frame{Kind: byte(wire.OpQuery), ID: uint64(i), Payload: wire.AppendQueryRequest(nil, wire.QueryRequest{Query: q, Params: params})})
			if err == nil {
				var f wire.Frame
				if f, err = wire.ReadFrame(bytes.NewReader(buf)); err == nil {
					_, err = wire.DecodeQueryRequest(f.Payload)
				}
			}
			nbytes += len(buf)
			if err == nil {
				buf, err = wire.AppendFrame(buf[:0], wire.Frame{ID: uint64(i), Payload: wire.AppendResult(nil, res)})
			}
			if err == nil {
				var f wire.Frame
				if f, err = wire.ReadFrame(bytes.NewReader(buf)); err == nil {
					_, err = wire.DecodeResult(f.Payload)
				}
			}
			nbytes += len(buf)
			ops++
			if err != nil {
				r.check(false, "wire codec %s: %v", q, err)
				return
			}
		}
	}
	d := time.Since(t0)
	r.tr.end(sp)
	if ops > 0 {
		r.set("wire.codec_ns_per_op", float64(d)/float64(ops), ops)
		r.set("wire.bytes_per_op", float64(nbytes)/float64(ops), 0)
	}
}

// journalProbe times the journal's commit path directly on a scratch
// log: two writers, each Enqueue + WaitDurable per record, as the
// server's update path does.
func (r *run) journalProbe(parent int32, class core.Class) {
	path := filepath.Join(r.cfg.scratch, "probe.journal")
	defer os.Remove(path)
	l, _, err := updatelog.OpenFile(path)
	if err != nil {
		r.check(false, "journal probe: %v", err)
		return
	}
	per := scaled(1000, r.scale, 20)
	lat := make([][]float64, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name, doc := workload.UpdateDoc(class, w*per+i, 0)
				sp := r.tr.begin("FileLog.Enqueue+WaitDurable", parent, 0)
				t0 := time.Now()
				b, err := l.Enqueue(updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: doc, Client: uint64(w + 1), Seq: uint64(i + 1)})
				if err == nil {
					err = l.WaitDurable(b)
				}
				d := time.Since(t0)
				r.tr.end(sp)
				if err != nil {
					r.failf("journal probe: %v", err)
					return
				}
				lat[w] = append(lat[w], float64(d))
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for _, xs := range lat {
		all = append(all, xs...)
	}
	r.attempt(len(all))
	r.set("updatelog.commit_p50_us", median(all)/1e3, len(all))
	if s := l.Syncs(); s > 0 {
		r.set("updatelog.updates_per_fsync", float64(l.Records())/float64(s), 0)
	}
	if err := l.Close(); err != nil {
		r.check(false, "journal probe close: %v", err)
	}
}

// nullEngine answers instantly: what is left is the benchmark's loop.
type nullEngine struct{}

func (nullEngine) Name() string                         { return "null" }
func (nullEngine) Supports(core.Class, core.Size) error { return nil }
func (nullEngine) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, nil
}
func (nullEngine) BuildIndexes([]core.IndexSpec) error { return nil }
func (nullEngine) Execute(context.Context, core.QueryID, core.Params) (core.Result, error) {
	return core.Result{}, nil
}
func (nullEngine) ColdReset()                                            {}
func (nullEngine) PageIO() int64                                         { return 0 }
func (nullEngine) InsertDocument(context.Context, string, []byte) error  { return nil }
func (nullEngine) ReplaceDocument(context.Context, string, []byte) error { return nil }
func (nullEngine) DeleteDocument(context.Context, string) error          { return nil }
func (nullEngine) Close() error                                          { return nil }
