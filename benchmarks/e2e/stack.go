package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xbench"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/router"
	"xbench/internal/server"
	"xbench/internal/workload"
)

// stack is one engine brought up the way a workload needs it: bare, behind
// a loopback server, or as shard servers behind a router. front is what
// the client loops call; everything else is kept for stats and teardown.
type stack struct {
	key string // engine key ("native", ...)
	// display is the engine's paper name ("X-Hive", ...), which
	// workload.ModeFor keys its check modes on.
	display string
	front   core.Engine
	// frontName labels op spans by the layer the benchmark calls into.
	frontName string
	engines   []core.Engine // in-process engines beneath front
	servers   []*server.Server
	journals  []string
	parts     []*core.Database // per-shard partitions (routed only)
	reg       *metrics.Registry
	stats     core.LoadStats

	load, index time.Duration // Load and BuildIndexes where the benchmark calls them itself
	// loadIndex is the part of set-up that is bulk load plus index build
	// (for a routed stack, the shard Reopens, which do both inside).
	loadIndex time.Duration
	setup     time.Duration // everything until front can serve

	closers []func() error
}

// close tears the stack down, clients first. Errors are reported, not
// fatal: the measurements are already taken.
func (s *stack) close(r *run) {
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil {
			fmt.Fprintf(r.cfg.out, "teardown %s: %v\n", s.key, err)
		}
	}
	s.closers = nil
}

// pagerOf reaches the pager of an in-process engine; all four engines
// export it for exactly this kind of outside inspection.
func pagerOf(e core.Engine) *pager.Pager {
	return e.(interface{ Pager() *pager.Pager }).Pager()
}

// storedBytes is the on-"disk" footprint of the stack's engines: every
// pager file's page count times the page size.
func (s *stack) storedBytes() int64 {
	var pages int64
	for _, e := range s.engines {
		p := pagerOf(e)
		// File ids are handed out densely from zero and files are never
		// removed, so the open-file count bounds them.
		for fid := 0; fid < p.OpenFiles(); fid++ {
			pages += int64(p.NumPages(pager.FileID(fid)))
		}
	}
	return pages * pager.PageSize
}

func (s *stack) pageIO() int64 {
	var n int64
	for _, e := range s.engines {
		n += e.PageIO()
	}
	return n
}

func (s *stack) coldReset() {
	for _, e := range s.engines {
		e.ColdReset()
	}
}

// newEngine constructs one engine through the public facade. reg is
// attached only on traced runs, so counts from every layer under the
// engine land in one place per engine key.
func (r *run) newEngine(key string, poolPages int, reg *metrics.Registry) (core.Engine, error) {
	opts := []xbench.Option{xbench.WithPoolPages(poolPages)}
	if reg != nil {
		opts = append(opts, xbench.WithMetrics(reg))
	}
	return xbench.New(key, opts...)
}

// buildInproc loads and indexes db into a fresh engine.
func (r *run) buildInproc(key string, db *core.Database, poolPages int, parent int32) (*stack, error) {
	start := time.Now()
	s := &stack{key: key, frontName: "engine"}
	if r.tr != nil {
		s.reg = metrics.NewRegistry()
	}
	e, err := r.newEngine(key, poolPages, s.reg)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, e.Close)
	s.engines, s.front, s.display = []core.Engine{e}, e, e.Name()
	if err := e.Supports(db.Class, db.Size); err != nil {
		s.close(r)
		return nil, err
	}
	sp := r.tr.begin("engine.Load", parent, 0)
	t0 := time.Now()
	s.stats, err = e.Load(r.ctx, db)
	s.load = time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		s.close(r)
		return nil, fmt.Errorf("%s load: %w", key, err)
	}
	sp = r.tr.begin("engine.BuildIndexes", parent, 0)
	t0 = time.Now()
	err = e.BuildIndexes(workload.Indexes(db.Class))
	s.index = time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		s.close(r)
		return nil, fmt.Errorf("%s index: %w", key, err)
	}
	s.loadIndex = s.load + s.index
	s.setup = time.Since(start)
	return s, nil
}

// pipelined is the client configuration every served stack uses: the
// multiplexed transport, which is what `xbench route` and the sweeps run.
var pipelined = client.Config{Pipeline: true}

// serve puts a loopback server and a pipelined client in front of an
// in-process stack. The server owns the engine from then on.
func (r *run) serve(s *stack, parent int32) error {
	start := time.Now()
	sp := r.tr.begin("server.Start", parent, 0)
	srv := server.New(s.engines[0], server.Config{})
	err := srv.Start()
	r.tr.end(sp)
	if err != nil {
		return err
	}
	// The server closes the engine; drop the engine's own closer.
	s.closers = []func() error{srv.Close}
	s.servers = []*server.Server{srv}
	sp = r.tr.begin("client.Dial", parent, 0)
	c, err := client.Dial(srv.Addr().String(), pipelined)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, c.Close)
	s.front, s.frontName = c, "client"
	s.setup += time.Since(start)
	return nil
}

// buildServed is buildInproc plus serve.
func (r *run) buildServed(key string, db *core.Database, parent int32) (*stack, error) {
	s, err := r.buildInproc(key, db, 0, parent)
	if err != nil {
		return nil, err
	}
	if err := r.serve(s, parent); err != nil {
		s.close(r)
		return nil, err
	}
	return s, nil
}

// buildRouted partitions db over `shards` in-process shard servers, each
// recovered with server.Reopen from its own (initially empty) journal
// file under dir, and dials a router over them.
func (r *run) buildRouted(key string, db *core.Database, shards int, dir string, parent int32) (*stack, error) {
	start := time.Now()
	s := &stack{key: key, frontName: "router"}
	if r.tr != nil {
		s.reg = metrics.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ring := router.NewRing(shards, 0)
	var specs []router.Shard
	for i := 0; i < shards; i++ {
		e, err := r.newEngine(key, 0, s.reg)
		if err != nil {
			s.close(r)
			return nil, err
		}
		s.display = e.Name()
		part := ring.Partition(db, i)
		journal := filepath.Join(dir, fmt.Sprintf("shard%d.journal", i))
		sp := r.tr.begin("server.Reopen", parent, 0)
		t0 := time.Now()
		srv, _, err := server.Reopen(e, part, workload.Indexes(db.Class), journal, server.Config{})
		s.loadIndex += time.Since(t0)
		r.tr.end(sp)
		if err != nil {
			e.Close()
			s.close(r)
			return nil, fmt.Errorf("%s shard %d reopen: %w", key, i, err)
		}
		s.closers = append(s.closers, srv.Close)
		if err := srv.Start(); err != nil {
			s.close(r)
			return nil, err
		}
		s.engines = append(s.engines, e)
		s.servers = append(s.servers, srv)
		s.journals = append(s.journals, journal)
		s.parts = append(s.parts, part)
		specs = append(specs, router.Shard{Primary: srv.Addr().String()})
	}
	sp := r.tr.begin("router.Dial", parent, 0)
	rt, err := router.Dial(specs, router.Config{Client: pipelined})
	r.tr.end(sp)
	if err != nil {
		s.close(r)
		return nil, err
	}
	s.closers = append(s.closers, rt.Close)
	s.front = rt
	s.setup = time.Since(start)
	return s, nil
}

// setupMedian builds a stack setupReps times, tearing down all but the
// last, and returns that one with the median set-up and load+index
// times: one build is at the mercy of a single GC cycle or scheduler
// stall, and set-up time is a gated metric.
func (r *run) setupMedian(build func() (*stack, error)) (s *stack, setup, loadIndex time.Duration, err error) {
	var setups, loads []float64
	for i := 0; i < r.setupReps; i++ {
		if s != nil {
			s.close(r)
		}
		if s, err = build(); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, float64(s.setup))
		loads = append(loads, float64(s.loadIndex))
	}
	return s, time.Duration(median(setups)), time.Duration(median(loads)), nil
}
