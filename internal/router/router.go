// The Router: a core.Engine whose "storage" is N remote shards.
//
// Routing: single-document operations go to the owning shard alone. They
// are the U1-U3 updates and every read one document answers: the
// plan.OneDocument property of the compiled query, doc($DOC) or one
// source selected by an @id = $X equality (DC/MD Q1, Q5, Q8, Q9, Q12,
// Q16; TC/MD also Q13). Such a read goes to the owner of the document
// core.DocOf names for the bound id, when the id's root element is the
// query's source element. Its answer is the single engine's exactly,
// because the database keeps every element with such an id as the root
// of the document DocOf names (TestDocOfNamesEveryIDsDocument holds the
// generators and the update workload to it; a document inserted under
// another name that repeats such an id would break it), so no other shard
// holds an element the query could select. Every other read scatters to
// all shards and the router returns the concatenation of the per-shard
// answers. That is the single-engine answer only when the answer is a
// union over documents: an aggregate comes back as one partial result per
// shard (DC/MD Q3: three partial sums), an order by as one sorted run per
// shard, and a join across documents misses the pairs whose sides live on
// different shards (DC/MD Q19). ROADMAP item 2 tracks the gathers that fix
// this. Updates ride the shard's primary, each one updatelog.Record
// passed through Apply as it arrived, its idempotency key included; reads
// ride a failover client that tries the primary first, so they survive a
// dead primary by falling over to its journal-fed replicas (servers with
// server.Config.ReplicaOf set).
//
// Placement is the ring's alone (ring.go): the router keeps no
// per-document state, so its memory is O(shards), a restarted or second
// router over the same shards routes every name identically, and there
// is nothing to persist or reconcile.
//
// Partial failure: fail-fast. A scatter is cancelled on the first shard
// error that is not a decline and returns it, so every answer the router
// gives is the union of every shard's; a dead primary is covered by its
// replica, not by a smaller union.
package router

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/plan"
	"xbench/internal/updatelog"
)

// Shard declares one shard's members: the primary every update goes to
// and the replicas its journal feeds.
type Shard struct {
	Primary  string
	Replicas []string
}

// docRoutes lists, per query id, the plan.OneDocument property of every
// class that instantiates the query: the parameters that can name the one
// document answering it. The router is told no class, and needs none:
// core.DocOf returns an id's root element, so a route applies only when
// that element is the one the route's query reads.
func docRoutes() (routes [core.Q20 + 1][]plan.DocRoute) {
	for q := core.Q1; q <= core.Q20; q++ {
		for _, class := range core.Classes {
			if rt, ok := plan.OneDocument(class, q); ok && !slices.Contains(routes[q], rt) {
				routes[q] = append(routes[q], rt)
			}
		}
	}
	return routes
}

// Config controls a Router.
type Config struct {
	// Client is the template for every per-shard connection (pooling,
	// retries, breakers, pipelining). Zero values select the client
	// package defaults.
	Client client.Config
}

// shardConn is one shard's connections and counters.
type shardConn struct {
	spec  Shard
	write *client.Client // primary only: updates, cold resets, page I/O
	read  *client.Client // reads: the primary, then its replicas on failover

	routed  *metrics.Counter // router.shard.<i>.routed
	scatter *metrics.Counter // router.shard.<i>.scatter
	errs    *metrics.Counter // router.shard.<i>.errors
	fo      *metrics.Counter // router.shard.<i>.failovers (synced lazily)
}

func (sc *shardConn) close() error {
	err := sc.write.Close()
	if sc.read != sc.write {
		err = errors.Join(err, sc.read.Close())
	}
	return err
}

// Router is the scatter-gather coordinator. It satisfies core.Engine.
type Router struct {
	cfg  Config
	reg  *metrics.Registry
	gath *metrics.Histogram // router.gather: scatter wall time
	name string

	ring   *Ring                         // the only placement authority; immutable
	routes [core.Q20 + 1][]plan.DocRoute // docRoutes(); immutable

	// mu guards shards against Close: every engine call holds it shared
	// for its whole duration, Close takes it exclusive.
	mu     sync.RWMutex
	shards []*shardConn
}

// Dial connects to every shard and builds the router. All shards must be
// up; a partial cluster is a configuration error at construction time
// (at runtime a dead primary's reads fail over to its replicas).
func Dial(shards []Shard, cfg Config) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("router: no shards")
	}
	reg := metrics.NewRegistry()
	r := &Router{
		cfg:    cfg,
		reg:    reg,
		gath:   reg.Histogram("router.gather"),
		ring:   NewRing(len(shards), 0),
		routes: docRoutes(),
	}
	for i, spec := range shards {
		sc, err := r.dialShard(i, spec)
		if err != nil {
			for _, prev := range r.shards {
				prev.close()
			}
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		r.shards = append(r.shards, sc)
	}
	r.name = fmt.Sprintf("router(%d×%s)", len(shards), r.shards[0].write.Name())
	return r, nil
}

// dialShard opens one shard's write and read connections and registers
// its counters.
func (r *Router) dialShard(i int, spec Shard) (*shardConn, error) {
	write, err := client.Dial(spec.Primary, r.cfg.Client)
	if err != nil {
		return nil, err
	}
	read := write
	if len(spec.Replicas) > 0 {
		addrs := append([]string{spec.Primary}, spec.Replicas...)
		if read, err = client.DialAddrs(addrs, r.cfg.Client); err != nil {
			write.Close()
			return nil, err
		}
	}
	pfx := fmt.Sprintf("router.shard.%d.", i)
	return &shardConn{
		spec: spec, write: write, read: read,
		routed:  r.reg.Counter(pfx + "routed"),
		scatter: r.reg.Counter(pfx + "scatter"),
		errs:    r.reg.Counter(pfx + "errors"),
		fo:      r.reg.Counter(pfx + "failovers"),
	}, nil
}

// Metrics returns the router's registry after syncing the per-shard
// failover counters from the underlying clients.
func (r *Router) Metrics() *metrics.Registry {
	r.mu.RLock()
	for _, sc := range r.shards {
		n := sc.read.Failovers()
		if sc.read != sc.write {
			n += sc.write.Failovers()
		}
		sc.fo.Set(int64(n))
	}
	r.mu.RUnlock()
	return r.reg
}

// Shards returns the shard count.
func (r *Router) Shards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.shards)
}

// --- core.Engine ---

// Name labels the cluster after its shards' engine.
func (r *Router) Name() string { return r.name }

// Supports asks the first shard: shards are homogeneous by construction
// (the same engine binary serving partitions of the same database).
func (r *Router) Supports(c core.Class, s core.Size) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[0].write.Supports(c, s)
}

// Load refuses with core.ErrServed: each shard server loads its own ring
// partition (`xbench serve --shard=i/n`).
func (r *Router) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, core.ErrServed
}

// BuildIndexes refuses with core.ErrServed, as Load does.
func (r *Router) BuildIndexes([]core.IndexSpec) error { return core.ErrServed }

// Execute routes or scatters one query. A query one document answers
// runs on that document's owner alone; everything else runs on every
// shard and returns the union.
func (r *Router) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.shards == nil {
		return core.Result{}, errors.New("router: closed")
	}
	if name, ok := r.routeKey(q, p); ok {
		sc := r.shards[r.ring.Owner(name)]
		sc.routed.Inc()
		res, err := sc.read.Execute(ctx, q, p)
		if err != nil {
			sc.errs.Inc()
		}
		return res, err
	}
	return r.scatter(ctx, q, p)
}

// routeKey names the one document that answers (q, p): doc($DOC)'s
// document, or the document core.DocOf keeps the bound id's root element
// in, when that element is the query's source. ok=false scatters.
func (r *Router) routeKey(q core.QueryID, p core.Params) (string, bool) {
	if q < 0 || int(q) >= len(r.routes) {
		return "", false
	}
	for _, rt := range r.routes[q] {
		v := p.Get(rt.Param)
		if rt.Elem == "" {
			if v != "" {
				return v, true
			}
			continue
		}
		if root, name, ok := core.DocOf(v); ok && root == rt.Elem {
			return name, true
		}
	}
	return "", false
}

// scatter fans one query out to every shard and merges the answers.
// Caller holds mu shared.
func (r *Router) scatter(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := make([]core.Result, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	var once sync.Once
	var abortErr error
	for i, sc := range r.shards {
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			sc.scatter.Inc()
			res[i], errs[i] = sc.read.Execute(ctx, q, p)
			if err := errs[i]; err != nil {
				sc.errs.Inc()
				// Semantic declines (query undefined, combination
				// unsupported) are deterministic and identical on every
				// shard; any other failure aborts the scatter.
				if !core.IsNotAnswered(err) {
					once.Do(func() { abortErr = err; cancel() })
				}
			}
		}(i, sc)
	}
	wg.Wait()
	r.gath.Observe(time.Since(start))
	// A decline is the query's answer; it outranks an abort.
	for _, err := range errs {
		if core.IsNotAnswered(err) {
			return core.Result{}, err
		}
	}
	if abortErr != nil {
		return core.Result{}, abortErr
	}

	var out core.Result
	for i := range res {
		out.Items = append(out.Items, res[i].Items...)
		out.MixedContentLost = out.MixedContentLost || res[i].MixedContentLost
	}
	// A union over more than one shard interleaves per-shard sequences,
	// so global document order is guaranteed only on a one-shard cluster.
	out.OrderGuaranteed = len(res) == 1 && res[0].OrderGuaranteed
	return out, nil
}

// ColdReset drops every shard primary's caches (replicas keep theirs:
// cold-run measurements read the primaries, and the journal puller's
// steady trickle would re-warm replicas immediately anyway).
func (r *Router) ColdReset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var wg sync.WaitGroup
	for _, sc := range r.shards {
		wg.Add(1)
		go func(sc *shardConn) {
			defer wg.Done()
			sc.write.ColdReset()
		}(sc)
	}
	wg.Wait()
}

// PageIO sums the shard primaries' cumulative page I/O.
func (r *Router) PageIO() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for _, sc := range r.shards {
		total += sc.write.PageIO()
	}
	return total
}

// Apply implements updatelog.Applier: rec goes, as it is, to the primary
// of the shard the ring assigns its name to. A record that arrives with
// an idempotency key (a front-end server forwarding its client's update)
// keeps it, and one without gets the shard client's own, so the hop is
// exactly-once either way (client.Apply).
func (r *Router) Apply(ctx context.Context, rec updatelog.Record, durable func() error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sc := r.shards[r.ring.Owner(rec.Name)]
	sc.routed.Inc()
	err := sc.write.Apply(ctx, rec, durable)
	if err != nil {
		sc.errs.Inc()
	}
	return err
}

var _ updatelog.Applier = (*Router)(nil)

// InsertDocument routes U1: an adapter onto Apply.
func (r *Router) InsertDocument(ctx context.Context, name string, data []byte) error {
	return r.Apply(ctx, updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: data}, nil)
}

// ReplaceDocument routes U2: an adapter onto Apply.
func (r *Router) ReplaceDocument(ctx context.Context, name string, data []byte) error {
	return r.Apply(ctx, updatelog.Record{Kind: updatelog.KindReplace, Name: name, Data: data}, nil)
}

// DeleteDocument routes U3: an adapter onto Apply.
func (r *Router) DeleteDocument(ctx context.Context, name string) error {
	return r.Apply(ctx, updatelog.Record{Kind: updatelog.KindDelete, Name: name}, nil)
}

// Close releases every shard connection. The shard servers keep running —
// like client.Close, this closes the coordinator's handle only.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	for _, sc := range r.shards {
		err = errors.Join(err, sc.close())
	}
	r.shards = nil
	return err
}

var _ core.Engine = (*Router)(nil)
