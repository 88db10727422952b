package chaos

import (
	"context"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/router"
	"xbench/internal/updatelog"
	"xbench/internal/workload"
)

// waitPort blocks until a TCP connect to addr succeeds (the replica
// process opens its listener only after loading its partition).
func waitPort(t *testing.T, addr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not ready after %v: %v", addr, timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardKillTorture is the whole-shard death drill for the sharded
// serving tier: three real `xbench serve --shard=i/3 --journal` children
// behind a router, one of them (the victim) backed by a journal-shipped
// read replica. An update storm runs through the router while the victim
// shard is SIGKILLed and restarted repeatedly. The invariants:
//
//   - Exactly-once across the cluster: after the storm, the union of the
//     three shard journals holds every acknowledged insert exactly once —
//     no ack lost to a kill, no document applied twice, and no document
//     journaled on two shards (placement stayed unique through the
//     deaths).
//   - Reads continue while a shard is down: during every dead-primary
//     window, scatters and reads routed to the victim keep answering —
//     the read client fails over to the replica, and the degraded
//     partial-failure policy covers any window the replica needs.
func TestShardKillTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("shard-kill torture is a multi-second test; skipped in -short")
	}
	bin := buildXbench(t)
	dir := t.TempDir()
	childLog := &syncBuffer{}
	ctx := context.Background()

	// Three journaled shard children on fixed ports, plus a replica of the
	// victim (shard 0). Every process regenerates the same base database
	// and loads only its ring partition.
	const shards, victim = 3, 0
	sups := make([]*Supervisor, shards)
	journals := make([]string, shards)
	for i := range sups {
		addr := freeAddr(t)
		journals[i] = filepath.Join(dir, fmt.Sprintf("shard%d.journal", i))
		sups[i] = &Supervisor{
			Binary: bin,
			Args: []string{"serve",
				"--engine=x-hive", "--class=dcmd", "--size=small",
				fmt.Sprintf("--shard=%d/%d", i, shards),
				"--addr=" + addr, "--journal=" + journals[i]},
			Addr: addr,
			Log:  childLog,
		}
		if err := sups[i].Start(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		defer sups[i].Kill()
	}

	repAddr := freeAddr(t)
	replica := exec.Command(bin, "serve",
		"--engine=x-hive", "--class=dcmd", "--size=small",
		fmt.Sprintf("--shard=%d/%d", victim, shards),
		"--replica-of="+sups[victim].Addr, "--addr="+repAddr, "--poll=10ms")
	replica.Stdout, replica.Stderr = childLog, childLog
	if err := replica.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		replica.Process.Kill()
		replica.Wait()
	}()
	waitPort(t, repAddr, 30*time.Second)

	specs := make([]router.Shard, shards)
	for i, sup := range sups {
		specs[i] = router.Shard{Primary: sup.Addr}
	}
	specs[victim].Replicas = []string{repAddr}
	rt, err := router.Dial(specs, router.Config{
		Degraded: true, // reads must continue while the victim is down
		Client: client.Config{
			Retries:       200,
			Backoff:       5 * time.Millisecond,
			MaxBackoff:    100 * time.Millisecond,
			Cooldown:      50 * time.Millisecond,
			FailThreshold: 1,
			ClientID:      0x5AD, Seed: 11,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// A sentinel document owned by the victim shard: the mid-kill routed
	// read probes it, so at least some reads are pinned to the dead
	// primary's shard rather than scattering around it.
	ring := router.NewRing(shards, 0)
	sentinel := 0
	for seq := 900000; ; seq++ {
		if name, _ := workload.UpdateDoc(core.DCMD, seq, 0); ring.Owner(name) == victim {
			sentinel = seq
			break
		}
	}
	sentName, sentData := workload.UpdateDoc(core.DCMD, sentinel, 0)
	if err := rt.InsertDocument(ctx, sentName, sentData); err != nil {
		t.Fatalf("sentinel insert: %v", err)
	}

	// The storm: writers insert uniquely-named documents through the
	// router and log every acknowledgment. Names spread across all shards
	// by the ring, so the victim's kill windows sit in every writer's path.
	const workers = 3
	var (
		ackMu sync.Mutex
		acked []string
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seq := 100000*(w+1) + i
				name, data := workload.UpdateDoc(core.DCMD, seq, 0)
				if err := rt.InsertDocument(ctx, name, data); err != nil {
					errs <- fmt.Errorf("worker %d seq %d: %w", w, seq, err)
					return
				}
				ackMu.Lock()
				acked = append(acked, name)
				ackMu.Unlock()
			}
		}(w)
	}

	// The killer: SIGKILL the victim shard, read THROUGH the outage, then
	// restart it (journal recovery). Both read shapes must answer with the
	// primary dead — the routed read rides the replica failover; the
	// scatter rides the replica leg plus the degraded policy.
	const cycles = 8
	readParams := core.Params{"X": fmt.Sprintf("OU%d", sentinel)}
	deadReads := 0
	for cycle := 0; cycle < cycles; cycle++ {
		time.Sleep(time.Duration(50+30*cycle) * time.Millisecond)
		if err := sups[victim].Kill(); err != nil {
			t.Fatalf("cycle %d kill: %v", cycle, err)
		}
		for k := 0; k < 2; k++ {
			if _, err := rt.Execute(ctx, core.Q1, readParams); err != nil {
				t.Errorf("cycle %d: routed read with dead primary: %v", cycle, err)
			}
			if _, err := rt.Execute(ctx, core.Q5, workload.Params(core.DCMD)); err != nil {
				t.Errorf("cycle %d: scatter with dead primary: %v", cycle, err)
			}
			deadReads += 2
		}
		if err := sups[victim].Start(); err != nil {
			t.Fatalf("cycle %d restart: %v\nchild log:\n%s", cycle, err, childLog.String())
		}
	}

	// Quiesce, then final deaths: examine the journals offline, exactly as
	// the next restarts would.
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("driver-visible update error: %v", err)
	}
	if got := sups[victim].Kills(); got < cycles {
		t.Fatalf("delivered %d SIGKILLs, want >= %d", got, cycles)
	}
	snap := rt.Metrics().Snapshot()
	for i := range sups {
		if err := sups[i].Kill(); err != nil {
			t.Fatal(err)
		}
	}

	// Cluster-wide exactly-once: every acknowledged insert in exactly one
	// journal, exactly once; every key applied once.
	journaled := map[string]int{}
	keys := map[string]int{}
	perShard := make([]int, shards)
	for i, path := range journals {
		fl, recs, err := updatelog.OpenFile(path)
		if err != nil {
			t.Fatalf("reopen shard %d journal: %v", i, err)
		}
		fl.Close()
		perShard[i] = len(recs)
		for _, r := range recs {
			journaled[r.Name]++
			if r.Client == 0 {
				t.Errorf("shard %d journal record %q has no idempotency key", i, r.Name)
			}
			keys[fmt.Sprintf("%d/%d/%d", i, r.Client, r.Seq)]++
		}
	}
	for k, n := range keys {
		if n > 1 {
			t.Errorf("idempotency key %s journaled %d times (double-apply)", k, n)
		}
	}
	for name, n := range journaled {
		if n > 1 {
			t.Errorf("document %s journaled %d times (double-apply or dual placement)", name, n)
		}
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("storm acknowledged zero updates; the harness tested nothing")
	}
	for _, name := range acked {
		if journaled[name] == 0 {
			t.Errorf("acknowledged insert %s missing from every journal (lost ack)", name)
		}
	}
	if perShard[victim] == 0 {
		t.Error("victim shard journaled nothing; the kills never raced an update")
	}
	t.Logf("shard-kill torture: %d kills, %d acked inserts, journals %v, %d dead-window reads, victim failovers %d",
		sups[victim].Kills(), len(acked), perShard, deadReads,
		snap.Counters[fmt.Sprintf("router.shard.%d.failovers", victim)])
}
