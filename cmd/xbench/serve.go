// The serving side of the network layer: `xbench serve` loads one engine
// and exposes it over TCP, `xbench route` (route.go) fronts a cluster of
// them; --remote/--shards on the driving commands (main.go) reach them
// from another process through internal/client.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xbench/internal/bench"
	"xbench/internal/core"
	"xbench/internal/router"
	"xbench/internal/server"
	"xbench/internal/workload"
)

// listenOpts are the flags of a command that serves the wire protocol.
type listenOpts struct {
	addr                                    *string
	maxInflight                             *int
	queueWait, requestTimeout, drainTimeout *time.Duration
}

func listenFlags(fs *flag.FlagSet) *listenOpts {
	return &listenOpts{
		addr:           fs.String("addr", "127.0.0.1:9410", "listen address (port 0 picks a free port, printed on stdout)"),
		maxInflight:    fs.Int("max-inflight", 0, "admission-control slots; above this requests queue, then shed (0 = default)"),
		queueWait:      fs.Duration("queue-wait", 0, "longest a request waits for a slot before the overload rejection (0 = default)"),
		requestTimeout: fs.Duration("request-timeout", 0, "server-side cap on one request's context deadline (0 = default)"),
		drainTimeout:   fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on SIGTERM"),
	}
}

func (o *listenOpts) config() server.Config {
	return server.Config{
		Addr:           *o.addr,
		MaxInflight:    *o.maxInflight,
		QueueWait:      *o.queueWait,
		RequestTimeout: *o.requestTimeout,
	}
}

// awaitSignal blocks until SIGINT or SIGTERM and returns it; a second
// signal then kills the process the default way.
func awaitSignal() os.Signal {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	signal.Stop(sigc)
	return sig
}

// serveUntilSignal starts srv, prints its banner (verb, name, then how to
// drive it), and on SIGINT/SIGTERM runs onSignal, then drains srv within
// --drain-timeout.
func (o *listenOpts) serveUntilSignal(srv *server.Server, verb, name string, class core.Class, onSignal func()) error {
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("%s %s on %s (drive with: xbench throughput --remote=%s --no-load --class=%s)\n",
		verb, name, srv.Addr(), srv.Addr(), class.Code())
	fmt.Printf("%s: draining (up to %v) ...\n", awaitSignal(), *o.drainTimeout)
	onSignal()
	ctx, cancel := context.WithTimeout(context.Background(), *o.drainTimeout)
	defer cancel()
	return srv.Shutdown(ctx)
}

// parseShardSpec parses a --shard=I/N partition coordinate.
func parseShardSpec(s string) (int, int, error) {
	var idx, n int
	if _, err := fmt.Sscanf(s, "%d/%d", &idx, &n); err != nil {
		return 0, 0, fmt.Errorf("bad --shard %q (want I/N, e.g. 0/3)", s)
	}
	if n < 1 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("bad --shard %q: index must be in [0,%d)", s, n)
	}
	return idx, n, nil
}

func setupServe(fs *flag.FlagSet) func() error {
	d := databaseFlags(fs)
	engine := engineFlag(fs)
	noLoad := noLoadFlag(fs)
	listen := listenFlags(fs)
	journal := fs.String("journal", "", "durable update journal path; recovered before serving, so acknowledged updates survive a process kill")
	shard := fs.String("shard", "", "serve one partition of the generated database, as I/N (e.g. 0/3); ownership follows the router's hash ring")
	vnodes := vnodesFlag(fs)
	replicaOf := fs.String("replica-of", "", "run as a read-only replica of the primary at this address, continuously replaying its shipped journal")
	poll := fs.Duration("poll", 0, "replica journal poll interval (0 = default)")
	return func() error {
		class, _, err := d.parse()
		if err != nil {
			return err
		}
		e, err := bench.EngineByName(*engine, 0)
		if err != nil {
			return err
		}
		if *noLoad && (*shard != "" || *journal != "" || *replicaOf != "") {
			return fmt.Errorf("--shard, --journal and --replica-of need the generated base database (drop --no-load)")
		}
		if *replicaOf != "" && *journal != "" {
			return fmt.Errorf("a replica replays its primary's journal; drop --journal")
		}
		var db *core.Database
		if !*noLoad {
			// The deterministic base database — sliced down to this process's
			// ring partition under --shard, so a shard (or its replica)
			// reconstructs what it owns without asking the router.
			if db, err = d.generate(); err != nil {
				return err
			}
			if *shard != "" {
				idx, n, err := parseShardSpec(*shard)
				if err != nil {
					return err
				}
				full := len(db.Docs)
				db = router.NewRing(n, *vnodes).Partition(db, idx)
				fmt.Printf("shard %d/%d owns %d of %d documents\n", idx, n, len(db.Docs), full)
			}
		}

		if *replicaOf != "" {
			// Load the same base partition the primary serves, then ship the
			// primary's durable journal into it forever, answering reads (and
			// rejecting writes) on --addr.
			rep, err := router.StartReplica(context.Background(), e, db, workload.Indexes(db.Class), *replicaOf, router.ReplicaConfig{
				Server: listen.config(),
				Poll:   *poll,
			})
			if err != nil {
				return err
			}
			fmt.Printf("replica of %s: serving %s read-only on %s\n", *replicaOf, e.Name(), rep.Addr())
			fmt.Printf("%s: replica stopping after %d applied journal records\n", awaitSignal(), rep.Applied())
			if aerr := rep.Err(); aerr != nil {
				rep.Close()
				return aerr
			}
			return rep.Close()
		}

		var srv *server.Server
		if *journal != "" {
			// Crash-safe path: Reopen loads the regenerated base database,
			// replays the journal's acknowledged updates and rebuilds the
			// idempotency dedup table before the listener opens — a
			// killed-and-restarted server answers a client's retry with the
			// original outcome instead of re-applying it.
			var replayed int
			if srv, replayed, err = server.Reopen(e, db, workload.Indexes(db.Class), *journal, listen.config()); err != nil {
				return err
			}
			fmt.Printf("recovered %s into %s: %d journaled updates replayed from %s\n",
				db.Instance(), e.Name(), replayed, *journal)
		} else {
			if db != nil {
				if err := load(context.Background(), e, db); err != nil {
					return err
				}
			}
			srv = server.New(e, listen.config())
		}
		if err := listen.serveUntilSignal(srv, "serving", e.Name(), class, func() {}); err != nil {
			return err
		}
		fmt.Println("drained; bye")
		return nil
	}
}
