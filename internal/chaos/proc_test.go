package chaos

import (
	"bytes"
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
	"xbench/internal/updatelog"
	"xbench/internal/workload"
)

// syncBuffer collects child process output for the failure report.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// buildXbench compiles the real CLI binary the supervisor will kill.
func buildXbench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xbench")
	cmd := exec.Command("go", "build", "-o", bin, "xbench/cmd/xbench")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build xbench: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a port by listening on it and letting go — the
// supervisor's child needs a FIXED address to rebind after each kill.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestProcessKillTorture is the end-to-end exactly-once proof: an update
// storm runs against a REAL `xbench serve --journal` child process while
// the supervisor SIGKILLs and restarts it 20 times at seeded points.
// Afterwards the journal (read offline, after the final kill) must hold
// EXACTLY the set of acknowledged updates — every acked insert present
// (no lost ack: the fsynced journal is the commit point, acks only
// follow it) and no key or document applied twice (no double-apply: the
// dedup table, rebuilt from the journal on every restart, answered the
// cross-crash retries from memory).
func TestProcessKillTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill torture is a multi-second test; skipped in -short")
	}
	bin := buildXbench(t)
	addr := freeAddr(t)
	journal := filepath.Join(t.TempDir(), "torture.journal")
	childLog := &syncBuffer{}

	sup := &Supervisor{
		Binary: bin,
		Args: []string{"serve",
			"--engine=x-hive", "--class=dcmd", "--size=small",
			"--addr=" + addr, "--journal=" + journal},
		Addr: addr,
		Log:  childLog,
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()

	// One client, generous retry budget: every update must ride out a
	// kill + restart window (sub-second here) inside its own retry loop.
	// Pipeline on: the torture proves exactly-once holds on the batched
	// mux transport too — in-flight requests sharing a connection all die
	// together on every kill and must all ride their retry loops out.
	c, err := client.DialAddrs([]string{addr}, client.Config{
		Retries:    200,
		Backoff:    5 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Cooldown:   50 * time.Millisecond,
		ClientID:   0xAB1E, Seed: 7,
		Pipeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The storm: writers insert uniquely-named documents back to back and
	// log every acknowledgment; the last worker runs the full update
	// workload op — insert plus verification READ — so the storm is mixed
	// read/write, with queries retrying across the same restarts the
	// updates do. Unique names make the invariants exact set questions
	// against the journal.
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
				if w == workers-1 {
					// Mixed read/write leg: RunUpdateOp inserts, then
					// issues the Q1 verification query for the new doc.
					if m := workload.RunUpdateOp(context.Background(), c, core.DCMD, workload.U1, seq); m.Err != nil {
						errs <- fmt.Errorf("worker %d seq %d (verified): %w", w, seq, m.Err)
						return
					}
				} else if err := c.InsertDocument(context.Background(), name, data); err != nil {
					errs <- fmt.Errorf("worker %d seq %d: %w", w, seq, err)
					return
				}
				ackMu.Lock()
				acked = append(acked, name)
				ackMu.Unlock()
			}
		}(w)
	}

	// 20 SIGKILL/restart cycles at seeded points mid-storm.
	const cycles = 20
	stormErr := sup.Storm(cycles, 42, 50*time.Millisecond, 250*time.Millisecond)

	// Quiesce: workers finish their in-flight op (to acknowledgment or
	// error), so every issued update has a resolved outcome.
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("driver-visible update error: %v", err)
	}
	if stormErr != nil {
		t.Fatalf("storm: %v\nchild log:\n%s", stormErr, childLog.String())
	}
	if got := sup.Kills(); got < cycles {
		t.Fatalf("delivered %d SIGKILLs, want >= %d", got, cycles)
	}

	// Final death: examine the journal offline, exactly as the next
	// restart would.
	if err := sup.Kill(); err != nil {
		t.Fatal(err)
	}
	fl, recs, err := updatelog.OpenFile(journal)
	if err != nil {
		t.Fatalf("reopen journal after torture: %v", err)
	}
	fl.Close()

	journaled := map[string]int{}
	keys := map[string]int{}
	for _, r := range recs {
		if r.Kind != updatelog.KindInsert {
			t.Errorf("journal holds a %v record; the storm only inserts", r.Kind)
		}
		journaled[r.Name]++
		if r.Client == 0 {
			t.Errorf("journal record %q has no idempotency key", r.Name)
		}
		keys[fmt.Sprintf("%d/%d", r.Client, r.Seq)]++
	}
	for k, n := range keys {
		if n > 1 {
			t.Errorf("idempotency key %s journaled %d times (double-apply)", k, n)
		}
	}
	for name, n := range journaled {
		if n > 1 {
			t.Errorf("document %s journaled %d times (double-apply)", name, n)
		}
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("storm acknowledged zero updates; the harness tested nothing")
	}
	for _, name := range acked {
		if journaled[name] == 0 {
			t.Errorf("acknowledged insert %s missing from the journal (lost ack)", name)
		}
	}
	// The converse also holds once the storm quiesced: every journaled
	// update was eventually acknowledged (an applied-but-unacked op keeps
	// retrying until its dedup hit succeeds, and workers only exit with a
	// resolved outcome).
	ackedSet := map[string]bool{}
	for _, name := range acked {
		ackedSet[name] = true
	}
	for name := range journaled {
		if !ackedSet[name] {
			t.Errorf("journaled insert %s was never acknowledged", name)
		}
	}
	t.Logf("torture: %d kills, %d acked inserts, %d journal records, child log %d bytes",
		sup.Kills(), len(acked), len(recs), len(childLog.String()))
}

// TestSupervisorKillIsNoopWhenDead: the supervisor's Kill must be safe
// on a never-started or already-killed child (the torture test calls it
// from a defer and again for the final death).
func TestSupervisorKillIsNoopWhenDead(t *testing.T) {
	sup := &Supervisor{Binary: "/nonexistent", Addr: "127.0.0.1:1"}
	if err := sup.Kill(); err != nil {
		t.Fatalf("Kill on never-started child: %v", err)
	}
	if sup.Kills() != 0 {
		t.Fatalf("kill count %d after no-op kill", sup.Kills())
	}
	if sup.Running() {
		t.Fatal("never-started supervisor reports running")
	}
}
