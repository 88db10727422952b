// Package driver is the closed-loop multi-client workload driver: N
// client goroutines issue the class's query mix against one shared,
// already-loaded engine and the driver reports throughput (queries per
// second) plus per-query latency percentiles. It is the concurrent
// counterpart of the single-stream cold-run harness in internal/bench —
// the paper measures one query at a time; this driver measures how the
// same engines behave when many clients hit the warm buffer pool at once.
//
// The loop is closed in the TPC-W sense: each client waits for its query
// to answer, then "thinks" for a fixed interval before issuing the next
// one. With think time well above service time, throughput scales with
// the client count until the engine saturates — which makes scaling
// visible even on a single-core host, where an open loop with zero think
// time saturates at one client.
//
// Determinism: client c of a run seeded S draws its query sequence from
// stats.NewRNG(S).Split(c+1), so the same (seed, clients, mix) triple
// replays the same per-client op sequence on any platform. OpSequence
// exposes the sequence for tests.
package driver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/stats"
	"xbench/internal/workload"
)

// Config controls one driver run.
type Config struct {
	// Clients is the number of concurrent client goroutines; <= 0 selects 1.
	Clients int
	// OpsPerClient fixes the number of queries each client issues. When 0,
	// Duration bounds the run instead; when both are zero, OpsPerClient
	// defaults to 50.
	OpsPerClient int
	// Duration bounds the run by wall clock (ignored when OpsPerClient > 0).
	Duration time.Duration
	// Seed drives the per-client deterministic query mix. 0 is an explicit
	// sentinel selecting DefaultSeed — it is not a usable seed value, and
	// OpSequence/MixedOpSequence apply the same substitution, so replaying
	// a Seed-0 run with OpSequence(0, ...) agrees with what Run executed.
	Seed uint64
	// Queries restricts the mix; nil selects every query the class defines
	// and the engine answers (probed during warmup).
	Queries []core.QueryID
	// NoWarmup skips the warmup pass. The mix is then used as given, and
	// the first measured ops run against a cold-ish pool.
	NoWarmup bool
	// Think is the per-client pause between queries (closed-loop think
	// time). 0 selects the 2ms default; < 0 disables thinking entirely.
	Think time.Duration
	// UpdateFraction is the probability, per op, that a client issues a
	// document update (drawn uniformly from UpdateOps) instead of a
	// query — the mixed read/write mode. 0 disables updates; values
	// outside [0, 1) fail the run. Requires a multi-document class.
	UpdateFraction float64
	// UpdateOps restricts the update-op mix; nil selects all of
	// workload.UpdateOps (U1 insert, U2 replace, U3 delete).
	UpdateOps []workload.UpdateOp
	// UpdateSeqBase is the first update sequence number handed out.
	// Update documents are named after their sequence number, and U1
	// inserts strictly, so a run reusing a warm engine must start past
	// the sequences already consumed — Sweep threads Report.NextUpdateSeq
	// through automatically.
	UpdateSeqBase int
}

// DefaultSeed is the seed a zero Config.Seed resolves to. It is a named
// constant (rather than a silent coercion buried in WithDefaults) so
// callers replaying a run's op stream know exactly which seed a Seed-0
// run used.
const DefaultSeed uint64 = 1

// WithDefaults resolves zero-value fields to their defaults.
func (c Config) WithDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.OpsPerClient <= 0 && c.Duration <= 0 {
		c.OpsPerClient = 50
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	switch {
	case c.Think < 0:
		c.Think = 0
	case c.Think == 0:
		c.Think = 2 * time.Millisecond
	}
	if c.UpdateFraction > 0 && len(c.UpdateOps) == 0 {
		c.UpdateOps = workload.UpdateOps
	}
	return c
}

// CellStats is the latency summary of one op type in one run: a query
// (Report.Cells) or, in a mixed run, an update op (Report.UpdateCells).
// Update latencies cover the update operation only — the follow-up
// verification query is not included (see workload.UpdateMeasurement).
// Errs excludes context cancellations, like Report.Errs.
type CellStats struct {
	MixedOp
	Count int64
	Errs  int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Report is the outcome of one driver run.
type Report struct {
	Engine  string
	Class   core.Class
	Clients int
	// UpdateFraction is the run's configured per-op update probability.
	UpdateFraction float64
	// Mix is the query types the clients drew from, in query order.
	Mix []core.QueryID
	// Elapsed is the measured wall-clock window.
	Elapsed time.Duration
	// Ops and Errs count completed and failed queries across all clients.
	// Errs excludes context cancellations and timeouts — those are the
	// caller stopping the run (or a deadline firing), not the engine
	// failing, and are counted in Canceled instead.
	Ops  int64
	Errs int64
	// Canceled counts ops that ended with context.Canceled or
	// context.DeadlineExceeded, reported as their own column so a remote
	// sweep with per-request deadlines does not masquerade as query
	// failures.
	Canceled int64
	// Throughput is Ops / Elapsed in queries per second.
	Throughput float64
	// ReadCount counts the query (non-update) ops, and ReadP50/P95/P99
	// summarize their latency aggregated across the whole mix — the
	// headline numbers of the update-fraction sweep, where the question
	// is what updates do to reads as a population, not per query type.
	ReadCount int64
	ReadP50   time.Duration
	ReadP95   time.Duration
	ReadP99   time.Duration
	// Cells summarizes latency per query type, in query order.
	Cells []CellStats
	// ClientOps is the number of ops each client completed.
	ClientOps []int
	// Updates and UpdateErrs count completed and failed update ops in a
	// mixed run (included in Ops and Errs; canceled updates count in
	// Canceled, not UpdateErrs).
	Updates    int64
	UpdateErrs int64
	// UpdateCells summarizes update latency per op, in op order; empty
	// when the run issued no updates.
	UpdateCells []CellStats
	// NextUpdateSeq is the first unconsumed update sequence number; feed
	// it into the next run's Config.UpdateSeqBase when reusing the engine.
	NextUpdateSeq int
}

// isContextErr reports whether an op error is a context cancellation or
// deadline rather than an engine failure. Remote engines reconstruct the
// context sentinels from wire status codes, so the check works
// identically for in-process and networked runs.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// nextOp draws the next query of a client's mix. All mix randomness goes
// through here so OpSequence replays the client loop exactly.
func nextOp(rng *stats.RNG, mix []core.QueryID) core.QueryID {
	return mix[rng.Intn(len(mix))]
}

// MixedOp is one op of a mixed read/write stream: a query, or (when
// Update is non-zero) an update operation.
type MixedOp struct {
	Query  core.QueryID
	Update workload.UpdateOp
}

func (m MixedOp) String() string {
	if m.Update != 0 {
		return m.Update.String()
	}
	return m.Query.String()
}

// nextMixedOp draws the next op of a mixed stream. With frac == 0 it
// consumes exactly the randomness nextOp does, so a pure-query mixed
// stream replays the classic OpSequence.
func nextMixedOp(rng *stats.RNG, mix []core.QueryID, frac float64, ups []workload.UpdateOp) MixedOp {
	if frac > 0 && rng.Float64() < frac {
		return MixedOp{Update: ups[rng.Intn(len(ups))]}
	}
	return MixedOp{Query: nextOp(rng, mix)}
}

// clientRNG returns client c's dedicated stream for a run seeded seed.
// Seed 0 resolves to DefaultSeed here — not only in WithDefaults — so
// the exported sequence replayers agree with Run about what a Seed-0
// run executes.
func clientRNG(seed uint64, client int) *stats.RNG {
	if seed == 0 {
		seed = DefaultSeed
	}
	return stats.NewRNG(seed).Split(uint64(client) + 1)
}

// OpSequence returns the first n queries client (0-based) would issue in
// a run with the given seed and mix. It is the driver's determinism
// contract, replayable without an engine.
func OpSequence(seed uint64, client int, mix []core.QueryID, n int) []core.QueryID {
	rng := clientRNG(seed, client)
	out := make([]core.QueryID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, nextOp(rng, mix))
	}
	return out
}

// MixedOpSequence is OpSequence for mixed read/write runs: the first n
// ops client (0-based) would issue with the given seed, mix, update
// fraction and update-op mix. With frac == 0 the sequence is exactly
// OpSequence's, wrapped in MixedOps.
func MixedOpSequence(seed uint64, client int, mix []core.QueryID, ups []workload.UpdateOp, frac float64, n int) []MixedOp {
	if len(ups) == 0 {
		ups = workload.UpdateOps
	}
	rng := clientRNG(seed, client)
	out := make([]MixedOp, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, nextMixedOp(rng, mix, frac, ups))
	}
	return out
}

// warmup executes each candidate query once against the engine, returning
// the queries it actually answers (ErrNoQuery/ErrUnsupported candidates
// are dropped) with the side effect of warming the buffer pool. Any other
// error fails the run: a broken query would poison every measurement.
func warmup(ctx context.Context, e core.Engine, class core.Class, candidates []core.QueryID) ([]core.QueryID, error) {
	p := workload.Params(class)
	var mix []core.QueryID
	for _, q := range candidates {
		if _, err := e.Execute(ctx, q, p); err != nil {
			if core.IsNotAnswered(err) {
				continue
			}
			return nil, fmt.Errorf("driver: warmup %s: %w", q, err)
		}
		mix = append(mix, q)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("driver: engine %s answers no queries for %s", e.Name(), class)
	}
	return mix, nil
}

// Run drives cfg.Clients concurrent clients against a loaded engine and
// reports throughput and per-query latency. The engine must already be
// loaded and indexed; Run never calls Load or ColdReset, so the pool
// stays warm across a Sweep.
func Run(ctx context.Context, e core.Engine, class core.Class, cfg Config) (Report, error) {
	cfg = cfg.WithDefaults()
	rep := Report{Engine: e.Name(), Class: class, Clients: cfg.Clients, UpdateFraction: cfg.UpdateFraction}
	if cfg.UpdateFraction < 0 || cfg.UpdateFraction >= 1 {
		return rep, fmt.Errorf("driver: update fraction %v outside [0, 1)", cfg.UpdateFraction)
	}
	if cfg.UpdateFraction > 0 && class.SingleDocument() {
		return rep, fmt.Errorf("driver: mixed read/write mode needs a multi-document class, not %s", class)
	}

	candidates := cfg.Queries
	if candidates == nil {
		candidates = workload.QueryIDs(class)
	}
	mix := candidates
	if !cfg.NoWarmup {
		var err error
		if mix, err = warmup(ctx, e, class, candidates); err != nil {
			return rep, err
		}
	}
	if len(mix) == 0 {
		return rep, fmt.Errorf("driver: empty query mix")
	}
	rep.Mix = mix

	// One accumulator per op type the clients can draw, built before they
	// start so the map is only ever read concurrently.
	type opAcc struct {
		hist *metrics.Histogram
		errs atomic.Int64
	}
	accs := make(map[MixedOp]*opAcc, len(mix)+len(cfg.UpdateOps))
	for _, q := range mix {
		accs[MixedOp{Query: q}] = &opAcc{hist: metrics.NewHistogram()}
	}
	for _, u := range cfg.UpdateOps {
		accs[MixedOp{Update: u}] = &opAcc{hist: metrics.NewHistogram()}
	}
	cellOf := func(op MixedOp) CellStats {
		a := accs[op]
		return CellStats{MixedOp: op, Count: a.hist.Count(), Errs: a.errs.Load(),
			Mean: a.hist.Mean(), P50: a.hist.P50(), P95: a.hist.P95(), P99: a.hist.P99()}
	}
	readHist := metrics.NewHistogram()
	params := workload.Params(class)

	var ops, errs, canceled, updates, updateErrs atomic.Int64
	// updateSeq hands out globally unique document sequence numbers. The
	// assignment order under concurrency is scheduling-dependent, but the
	// op streams themselves stay deterministic — sequence numbers only
	// pick document names, never what ops are drawn.
	var updateSeq atomic.Int64
	updateSeq.Store(int64(cfg.UpdateSeqBase))
	clientOps := make([]int, cfg.Clients)
	var errMu sync.Mutex
	var firstErr error

	deadline := time.Time{}
	if cfg.OpsPerClient <= 0 {
		deadline = time.Now().Add(cfg.Duration)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := clientRNG(cfg.Seed, client)
			for i := 0; ; i++ {
				if cfg.OpsPerClient > 0 {
					if i >= cfg.OpsPerClient {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				op := nextMixedOp(rng, mix, cfg.UpdateFraction, cfg.UpdateOps)
				acc := accs[op]
				var err error
				if op.Update != 0 {
					seq := int(updateSeq.Add(1)) - 1
					m := workload.RunUpdateOp(ctx, e, class, op.Update, seq)
					acc.hist.Observe(m.Elapsed)
					updates.Add(1)
					err = m.Err
				} else {
					t0 := time.Now()
					_, err = e.Execute(ctx, op.Query, params)
					d := time.Since(t0)
					acc.hist.Observe(d)
					readHist.Observe(d)
				}
				ops.Add(1)
				clientOps[client]++
				switch {
				case err == nil:
				case isContextErr(err):
					// The caller canceled the run or a deadline fired:
					// accounted separately and never treated as a failure.
					canceled.Add(1)
				default:
					errs.Add(1)
					acc.errs.Add(1)
					if op.Update != 0 {
						updateErrs.Add(1)
					}
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
				if cfg.Think > 0 {
					time.Sleep(cfg.Think)
				}
			}
		}(c)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)

	rep.Ops = ops.Load()
	rep.Errs = errs.Load()
	rep.Canceled = canceled.Load()
	rep.ClientOps = clientOps
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.Ops) / rep.Elapsed.Seconds()
	}
	rep.Updates = updates.Load()
	rep.UpdateErrs = updateErrs.Load()
	rep.NextUpdateSeq = int(updateSeq.Load())
	rep.ReadCount = readHist.Count()
	rep.ReadP50 = readHist.P50()
	rep.ReadP95 = readHist.P95()
	rep.ReadP99 = readHist.P99()
	qs := append([]core.QueryID(nil), mix...)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	for _, q := range qs {
		rep.Cells = append(rep.Cells, cellOf(MixedOp{Query: q}))
	}
	if rep.Updates > 0 {
		for _, u := range cfg.UpdateOps {
			rep.UpdateCells = append(rep.UpdateCells, cellOf(MixedOp{Update: u}))
		}
	}
	if firstErr != nil {
		return rep, fmt.Errorf("driver: %d/%d queries failed, first: %w", rep.Errs, rep.Ops, firstErr)
	}
	return rep, nil
}

// Sweep runs the driver once per step over the same loaded engine: every
// client count at every update fraction, fraction-major, with everything
// else in cfg held fixed. An empty list keeps cfg's own value, so a nil
// fractions list is the scaling table of `xbench throughput` and a nil
// clientCounts list its update-fraction sweep — snapshot reads never wait
// for the engine write lock, so Report.ReadP99 should stay roughly flat
// as the fraction grows. The pool stays warm across steps.
func Sweep(ctx context.Context, e core.Engine, class core.Class, clientCounts []int, fractions []float64, cfg Config) ([]Report, error) {
	if len(clientCounts) == 0 {
		clientCounts = []int{cfg.Clients}
	}
	if len(fractions) == 0 {
		fractions = []float64{cfg.UpdateFraction}
	}
	var out []Report
	for _, f := range fractions {
		for _, n := range clientCounts {
			c := cfg
			c.Clients, c.UpdateFraction = n, f
			rep, err := Run(ctx, e, class, c)
			if err != nil {
				return out, err
			}
			out = append(out, rep)
			// The first run warmed the pool and filtered the mix down to
			// the queries the engine answers; later steps must reuse that
			// filtered mix, not the raw candidate list. Mixed runs also
			// thread the update sequence forward so U1 never reuses a
			// document name.
			cfg.NoWarmup = true
			cfg.Queries = rep.Mix
			cfg.UpdateSeqBase = rep.NextUpdateSeq
		}
	}
	return out, nil
}
