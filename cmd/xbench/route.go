// `xbench route` fronts a shard cluster: it dials every shard of a
// sharded serving tier (each an `xbench serve --shard=i/n` process that
// loaded its own ring partition, plus optional `--replica-of` replicas),
// wraps them in the hash-partitioned scatter-gather router, and serves
// the router itself over TCP — so any wire client (--remote on the
// driving commands) drives the whole cluster through one address. The server attaches each request's idempotency key
// to its context and the router's shard clients reuse it, so an update
// retried against the front end stays exactly-once on the owning shard.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/router"
	"xbench/internal/server"
)

// shardsFlag is the flag of every command that coordinates a shard
// cluster (`route`, and --shards on the driving commands).
func shardsFlag(fs *flag.FlagSet) *string {
	return fs.String("shards", "", "comma-separated shard list, each PRIMARY[+REPLICA[+REPLICA...]] (e.g. :9411+:9421,:9412)")
}

// parseShards parses the --shards list into shard specs.
func parseShards(s string) ([]router.Shard, error) {
	var shards []router.Shard
	for _, part := range strings.Split(s, ",") {
		members := strings.Split(strings.TrimSpace(part), "+")
		sh := router.Shard{Primary: strings.TrimSpace(members[0])}
		if sh.Primary == "" {
			return nil, fmt.Errorf("empty shard entry in --shards=%q", s)
		}
		for _, rep := range members[1:] {
			if rep = strings.TrimSpace(rep); rep == "" {
				return nil, fmt.Errorf("empty replica address in --shards entry %q", part)
			}
			sh.Replicas = append(sh.Replicas, rep)
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

// dialShards builds a router over a --shards list.
func dialShards(list string) (*router.Router, error) {
	shards, err := parseShards(list)
	if err != nil {
		return nil, err
	}
	return router.Dial(shards, router.Config{})
}

// printShardMetrics renders the router.shard.<i>.* counters and the
// gather histogram: the per-shard view of where routed ops, scatter legs,
// errors and read failovers went. Sync the failover counters first by
// snapshotting via Router.Metrics().
func printShardMetrics(w io.Writer, reg *metrics.Registry) {
	snap := reg.Snapshot()
	fmt.Fprintf(w, "%-6s %8s %8s %8s %10s\n", "shard", "routed", "scatter", "errors", "failovers")
	for i := 0; ; i++ {
		pfx := fmt.Sprintf("router.shard.%d.", i)
		if _, ok := snap.Counters[pfx+"routed"]; !ok {
			break
		}
		fmt.Fprintf(w, "%-6d %8d %8d %8d %10d\n", i,
			snap.Counters[pfx+"routed"], snap.Counters[pfx+"scatter"],
			snap.Counters[pfx+"errors"], snap.Counters[pfx+"failovers"])
	}
	if g := reg.Histogram("router.gather"); g.Count() > 0 {
		fmt.Fprintf(w, "gather: n=%d p50=%v p95=%v p99=%v\n", g.Count(), g.P50(), g.P95(), g.P99())
	}
}

func setupRoute(fs *flag.FlagSet) func() error {
	classStr := classFlag(fs)
	listen := listenFlags(fs)
	shards := shardsFlag(fs)
	return func() error {
		class, err := core.ParseClass(*classStr)
		if err != nil {
			return err
		}
		if *shards == "" {
			return fmt.Errorf("--shards is required (start them with `xbench serve --shard=i/n`)")
		}
		r, err := dialShards(*shards)
		if err != nil {
			return err
		}
		// Metrics syncs the failover counters, so take it while the shards
		// are still dialed: Shutdown closes the router with the server.
		var reg *metrics.Registry
		srv := server.New(r, listen.config())
		err = listen.serveUntilSignal(srv, driveBanner("routing", r.Name(), class), func() { reg = r.Metrics() })
		if err != nil {
			return err
		}
		printShardMetrics(os.Stdout, reg)
		fmt.Println("drained; bye")
		return nil
	}
}
