// The serving side of the network layer: `xbench serve` loads one engine
// and exposes it over TCP, `xbench route` (route.go) fronts a cluster of
// them; --remote/--shards on the driving commands (main.go) reach them
// from another process through internal/client.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
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

// driveBanner is a server's banner: verb, name, address, then how to
// drive it.
func driveBanner(verb, name string, class core.Class) func(net.Addr) string {
	return func(addr net.Addr) string {
		return fmt.Sprintf("%s %s on %s (drive with: xbench throughput --remote=%s --class=%s)",
			verb, name, addr, addr, class.Code())
	}
}

// serveUntilSignal starts srv, prints its banner for the bound address,
// and on SIGINT/SIGTERM runs onSignal, then drains srv within
// --drain-timeout. A replica whose journal puller halts says why on
// stderr and keeps refusing reads until the signal.
func (o *listenOpts) serveUntilSignal(srv *server.Server, banner func(net.Addr) string, onSignal func()) error {
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Println(banner(srv.Addr()))
	go func() {
		<-srv.Halted()
		fmt.Fprintf(os.Stderr, "replica halted, refusing reads until SIGTERM: %v\n", srv.ReplicaErr())
	}()
	sig := awaitSignal()
	fmt.Printf("%s: draining (up to %v) ...\n", sig, *o.drainTimeout)
	onSignal()
	ctx, cancel := context.WithTimeout(context.Background(), *o.drainTimeout)
	defer cancel()
	return srv.Shutdown(ctx)
}

// parseShardSpec parses a --shard=I/N partition coordinate: two unsigned
// decimal numbers and the slash between them, nothing else.
func parseShardSpec(s string) (int, int, error) {
	i, n, ok := strings.Cut(s, "/")
	idx, err1 := strconv.ParseUint(i, 10, 31)
	cnt, err2 := strconv.ParseUint(n, 10, 31)
	if !ok || err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad --shard %q (want I/N, e.g. 0/3)", s)
	}
	if cnt < 1 || idx >= cnt {
		return 0, 0, fmt.Errorf("bad --shard %q: index must be in [0,%d)", s, cnt)
	}
	return int(idx), int(cnt), nil
}

func setupServe(fs *flag.FlagSet) func() error {
	d := databaseFlags(fs)
	engine := engineFlag(fs)
	listen := listenFlags(fs)
	journal := fs.String("journal", "", "durable update journal path; recovered before serving, so acknowledged updates survive a process kill")
	shard := fs.String("shard", "", "serve one partition of the generated database, as I/N (e.g. 0/3); ownership follows the router's hash ring")
	replicaOf := fs.String("replica-of", "", "run as a read-only replica of the primary at this address, continuously replaying its shipped journal")
	return func() error {
		class, _, err := d.parse()
		if err != nil {
			return err
		}
		e, err := bench.EngineByName(*engine, 0)
		if err != nil {
			return err
		}
		if *replicaOf != "" && *journal != "" {
			return fmt.Errorf("a replica replays its primary's journal; drop --journal")
		}
		// The deterministic base database — sliced down to this process's
		// ring partition under --shard, so a shard (or its replica)
		// reconstructs what it owns without asking the router.
		db, err := d.generate()
		if err != nil {
			return err
		}
		if *shard != "" {
			idx, n, err := parseShardSpec(*shard)
			if err != nil {
				return err
			}
			full := len(db.Docs)
			db = router.NewRing(n, 0).Partition(db, idx)
			fmt.Printf("shard %d/%d owns %d of %d documents\n", idx, n, len(db.Docs), full)
		}

		var srv *server.Server
		banner := driveBanner("serving", e.Name(), class)
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
			if err := load(context.Background(), e, db); err != nil {
				return err
			}
			// A replica loads its primary's base partition, then applies
			// the primary's shipped journal to it while serving reads.
			cfg := listen.config()
			cfg.ReplicaOf = *replicaOf
			srv = server.New(e, cfg)
			if *replicaOf != "" {
				banner = func(addr net.Addr) string {
					return fmt.Sprintf("replica of %s: serving %s read-only on %s", *replicaOf, e.Name(), addr)
				}
			}
		}
		if err := listen.serveUntilSignal(srv, banner, func() {}); err != nil {
			return err
		}
		fmt.Println("drained; bye")
		return nil
	}
}
