// Read replicas: a replica is a read-only wire server over its own
// engine, kept current by shipping the primary's durable update journal —
// poll OpJournal for the committed bytes past the last record it applied,
// check them with the journal's own decoder, re-apply the records in
// commit order, advance, repeat. The replica owns no durability: on
// restart it reloads its base database and replays the journal from
// offset zero, so its state is always a prefix of what a primary
// crash-recovery would reconstruct, never ahead of it.
//
// Consistency model: eventually consistent, bounded by the poll interval
// plus one apply pass. Updates are rejected at the wire with
// core.ErrReadOnly (server.Config.ReadOnly), and a pull names the record
// it follows, so a primary that came back on another journal is refused
// rather than followed: a replica can diverge from its primary only by
// lagging, never by forking.
package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/server"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// ReplicaConfig controls one replica.
type ReplicaConfig struct {
	// Server configures the replica's read-only listener; ReadOnly is
	// forced on regardless of its value here.
	Server server.Config
	// Client configures the connection the journal puller keeps to the
	// primary (retries and breaker settings govern how a replica rides
	// out a primary restart).
	Client client.Config
	// Poll is the journal poll interval; <= 0 selects 50ms. A pull that
	// returns records polls again immediately — the interval paces an
	// up-to-date replica, not a catch-up.
	Poll time.Duration
}

// Replica is a running read replica: a read-only server plus the journal
// puller feeding its engine.
type Replica struct {
	srv  *server.Server
	src  *client.Client
	stop context.CancelFunc
	wg   sync.WaitGroup

	applied atomic.Uint64 // journal records applied
	failed  atomic.Value  // error: what halted the puller
}

// StartReplica loads db into eng, builds its indexes, starts a read-only
// server for it, and begins pulling primaryAddr's journal. The replica
// owns eng from here on (Close closes it, via the server).
func StartReplica(ctx context.Context, eng core.Engine, db *core.Database, specs []core.IndexSpec, primaryAddr string, cfg ReplicaConfig) (*Replica, error) {
	if _, err := eng.Load(ctx, db); err != nil {
		return nil, fmt.Errorf("router: replica load: %w", err)
	}
	if err := eng.BuildIndexes(specs); err != nil {
		return nil, fmt.Errorf("router: replica indexes: %w", err)
	}
	src, err := client.Dial(primaryAddr, cfg.Client)
	if err != nil {
		return nil, fmt.Errorf("router: replica dial primary: %w", err)
	}
	cfg.Server.ReadOnly = true
	srv := server.New(eng, cfg.Server)
	if err := srv.Start(); err != nil {
		src.Close()
		return nil, err
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	pctx, cancel := context.WithCancel(context.Background())
	rep := &Replica{srv: srv, src: src, stop: cancel}
	rep.wg.Add(1)
	go rep.pull(pctx, eng, poll)
	return rep, nil
}

// pull is the shipping loop. Transport errors are retried on the next
// tick (the primary may be restarting — its journal replay will put the
// same records back). It halts, with Err set, on a window that does not
// decode whole (nothing of it is applied), on a primary that refuses its
// position (it came back on another journal), and on an apply error:
// going on would fork the replica from its primary silently.
func (rep *Replica) pull(ctx context.Context, eng core.Engine, poll time.Duration) {
	defer rep.wg.Done()
	t := time.NewTicker(poll)
	defer t.Stop()
	var at wire.JournalPullRequest // just past the last record applied
	for {
		window, err := rep.src.JournalPull(ctx, at)
		switch {
		case err == nil && len(window) > 0:
			recs, n := updatelog.Decode(window)
			if n < len(window) {
				rep.failed.Store(fmt.Errorf("router: replica: journal window at offset %d is damaged after %d of its %d bytes", at.Since, n, len(window)))
				return
			}
			for _, rec := range recs {
				if aerr := updatelog.Apply(ctx, eng, []updatelog.Record{rec}); aerr != nil {
					rep.failed.Store(fmt.Errorf("router: replica apply record %d: %w", rep.applied.Load(), aerr))
					return
				}
				rep.applied.Add(1)
			}
			at = wire.JournalPullRequest{Since: at.Since + uint64(n), Prev: recs[len(recs)-1].Sum()}
			continue // more may be waiting: pull again immediately
		case errors.Is(err, wire.ErrBadRequest):
			rep.failed.Store(fmt.Errorf("router: replica at journal offset %d: %w", at.Since, err))
			return
		case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, client.ErrClosed)):
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Addr returns the replica's listen address.
func (rep *Replica) Addr() net.Addr { return rep.srv.Addr() }

// Applied returns how many journal records the replica has applied.
// Tests await catch-up on it.
func (rep *Replica) Applied() uint64 { return rep.applied.Load() }

// Err returns what halted the puller (a damaged window, a refused
// position or an apply failure), or nil while shipping is healthy.
func (rep *Replica) Err() error {
	if v := rep.failed.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Close stops the puller, the server, and the engine under it.
func (rep *Replica) Close() error {
	rep.stop()
	err := rep.src.Close()
	rep.wg.Wait()
	return errors.Join(err, rep.srv.Close())
}
