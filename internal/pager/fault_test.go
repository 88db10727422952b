package pager

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// fillPages creates a file of n pages with distinct recognizable content
// and syncs it to disk.
func fillPages(t *testing.T, p *Pager, name string, n int) FileID {
	t.Helper()
	f := p.Create(name)
	for i := 0; i < n; i++ {
		if _, err := p.Append(f); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if err := p.Write(f, uint32(i), bytes.Repeat([]byte{byte(i + 1)}, PageSize)); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	if err := p.Sync(f); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return f
}

// faultTrace runs a fixed workload under a policy and returns a summary of
// the injected faults.
func faultTrace(seed uint64) string {
	p := New(4)
	p.SetFaultPolicy(FaultPolicy{Seed: seed, ReadErrorRate: 0.3})
	f := p.Create("t")
	for i := 0; i < 8; i++ {
		p.Append(f)
		p.Write(f, uint32(i), []byte{byte(i)})
	}
	p.Sync(f)
	p.ColdReset()
	for i := 0; i < 8; i++ {
		p.Read(f, uint32(i))
	}
	s := p.Stats()
	return fmt.Sprintf("faults=%d retries=%d ops=%d", s.ReadFaults, s.ReadRetries, p.OpCount())
}

func TestFaultDeterminism(t *testing.T) {
	a := faultTrace(42)
	b := faultTrace(42)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := faultTrace(43)
	if a == c {
		t.Fatalf("different seeds produced identical fault traces: %s", a)
	}
}

func TestTransientReadRetry(t *testing.T) {
	p := New(2)
	f := fillPages(t, p, "t", 4)
	p.ColdReset()
	// A moderate rate: reads fault sometimes but essentially never fault
	// MaxReadAttempts times in a row (0.2^4 = 0.16%).
	p.SetFaultPolicy(FaultPolicy{Seed: 7, ReadErrorRate: 0.2})
	for round := 0; round < 20; round++ {
		p.ColdReset()
		for i := 0; i < 4; i++ {
			pg, err := p.Read(f, uint32(i))
			if err != nil {
				t.Fatalf("round %d read %d: %v", round, i, err)
			}
			if pg[0] != byte(i+1) {
				t.Fatalf("round %d read %d returned wrong page", round, i)
			}
		}
	}
	s := p.Stats()
	if s.ReadFaults == 0 {
		t.Fatal("no transient faults injected at rate 0.2 over 80 cold reads")
	}
	if s.ReadRetries != s.ReadFaults {
		t.Fatalf("retries=%d faults=%d: every transient fault should be retried", s.ReadRetries, s.ReadFaults)
	}
}

func TestReadFaultExhaustionIsFatal(t *testing.T) {
	p := New(2)
	f := fillPages(t, p, "t", 1)
	p.ColdReset()
	p.SetFaultPolicy(FaultPolicy{Seed: 1, ReadErrorRate: 1})
	_, err := p.Read(f, 0)
	if !errors.Is(err, ErrReadFault) {
		t.Fatalf("err = %v, want ErrReadFault", err)
	}
	if IsTransient(err) {
		t.Fatal("exhausted read fault must not be transient")
	}
	if s := p.Stats(); s.ReadRetries != MaxReadAttempts-1 {
		t.Fatalf("retries = %d, want %d", s.ReadRetries, MaxReadAttempts-1)
	}
}

func TestCrashHaltsAllIO(t *testing.T) {
	p := New(2)
	f := fillPages(t, p, "t", 4)
	p.ColdReset()
	p.SetFaultPolicy(FaultPolicy{Seed: 5, CrashAfterOps: 2})
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		_, err = p.Read(f, uint32(i))
	}
	if !IsCrash(err) {
		t.Fatalf("err = %v, want crash", err)
	}
	// Every I/O path must fail while down.
	if _, err := p.Read(f, 0); !IsCrash(err) {
		t.Fatalf("Read while crashed: %v", err)
	}
	if err := p.Write(f, 0, nil); !IsCrash(err) {
		t.Fatalf("Write while crashed: %v", err)
	}
	if _, err := p.Append(f); !IsCrash(err) {
		t.Fatalf("Append while crashed: %v", err)
	}
	if err := p.Truncate(f); !IsCrash(err) {
		t.Fatalf("Truncate while crashed: %v", err)
	}
	// A crashed pager stays crashed: a new policy does not bring the
	// machine back, even one without a crash point.
	p.SetFaultPolicy(FaultPolicy{Seed: 5})
	if _, err := p.Read(f, 0); !IsCrash(err) {
		t.Fatalf("Read after a new policy: %v", err)
	}
}

// TestCrashBudgetSweep: for every possible crash point in a write
// workload the crash fires exactly there, every later operation fails,
// and each page on the disk is whole — the last image written back before
// the crash, or never written at all: a write-back is one disk operation,
// so no page is ever torn.
func TestCrashBudgetSweep(t *testing.T) {
	image := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, PageSize) }
	run := func(crashAt int64) (*Pager, FileID, error) {
		p := New(2) // tiny pool so evictions write back mid-workload
		p.SetFaultPolicy(FaultPolicy{Seed: 11, CrashAfterOps: crashAt})
		f := p.Create("t")
		var err error
		for i := 0; i < 6 && err == nil; i++ {
			_, err = p.Append(f)
			if err == nil {
				err = p.Write(f, uint32(i), image(i))
			}
		}
		if err == nil {
			err = p.Sync(f)
		}
		return p, f, err
	}
	p, _, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	total := p.OpCount()
	if total < 6 {
		t.Fatalf("workload too small to sweep: %d ops", total)
	}
	// CrashAfterOps = n fails the (n+1)th op, so n ranges over 1..total-1
	// to guarantee the crash fires before the workload completes.
	for n := int64(1); n < total; n++ {
		p, f, err := run(n)
		if !IsCrash(err) {
			t.Fatalf("crash at %d/%d: err = %v, want a crash", n, total, err)
		}
		if got := p.OpCount(); got != n {
			t.Fatalf("crash at %d: %d disk ops completed", n, got)
		}
		if _, err := p.Append(f); !IsCrash(err) {
			t.Fatalf("crash at %d: Append after the crash: %v", n, err)
		}
		written := 0
		for no, pg := range p.files[f].pages {
			if pg == nil {
				continue
			}
			written++
			if !bytes.Equal(pg, image(no)) {
				t.Fatalf("crash at %d: page %d on disk is not the image written to it", n, no)
			}
		}
		if int64(written) > n {
			t.Fatalf("crash at %d: %d pages on disk from %d disk ops", n, written, n)
		}
	}
}

// TestReadAliasingContract: Read hands out the pooled frame's buffer
// itself — the documented read-only contract — with or without a fault
// policy installed.
func TestReadAliasingContract(t *testing.T) {
	p := New(4)
	f := fillPages(t, p, "t", 1)
	a, _ := p.Read(f, 0)
	b, _ := p.Read(f, 0)
	if &a[0] != &b[0] {
		t.Fatal("Read should serve the pooled frame")
	}
	p.SetFaultPolicy(FaultPolicy{Seed: 1})
	if c, _ := p.Read(f, 0); &c[0] != &a[0] {
		t.Fatal("a fault policy made Read copy")
	}
}

// TestWriteBackTruncationGuard covers the guard in writeBack: a dirty
// frame whose file was truncated underneath it is dropped, not written.
func TestWriteBackTruncationGuard(t *testing.T) {
	p := New(4)
	f := p.Create("t")
	p.Append(f)
	p.Write(f, 0, []byte("doomed"))
	// Truncate drops the frame from the pool; rebuild the hazard manually
	// so the guard itself is exercised: a valid dirty frame pointing past
	// the end of its file.
	if err := p.Truncate(f); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.frames[0] = frame{key: pageKey{fid: f, no: 0}, data: make([]byte, PageSize), dirty: true, valid: true}
	p.table[pageKey{fid: f, no: 0}] = 0
	err := p.writeBack(&p.frames[0])
	p.mu.Unlock()
	if err != nil {
		t.Fatalf("writeBack on truncated file: %v", err)
	}
	if n := p.NumPages(f); n != 0 {
		t.Fatalf("write-back resurrected %d pages of a truncated file", n)
	}
	if s := p.Stats(); s.Writes != 0 {
		t.Fatalf("guard counted %d disk writes", s.Writes)
	}
}

// TestClockEvictionOrder pins the CLOCK sweep: reference bits grant a
// second chance, and the hand resumes where it stopped.
func TestClockEvictionOrder(t *testing.T) {
	p := New(3)
	f := p.Create("t")
	for i := 0; i < 5; i++ {
		if _, err := p.Append(f); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(f, uint32(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	p.ColdReset()

	inPool := func(no uint32) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		_, ok := p.table[pageKey{fid: f, no: no}]
		return ok
	}
	// Fill the 3-frame pool: A=0, B=1, C=2, all with used bits set.
	p.Read(f, 0)
	p.Read(f, 1)
	p.Read(f, 2)
	// Installing D=3 sweeps the clock: all three used bits are cleared,
	// the hand wraps to frame 0 and evicts A.
	p.Read(f, 3)
	if inPool(0) {
		t.Fatal("CLOCK should have evicted page 0 after a full sweep")
	}
	if !inPool(1) || !inPool(2) || !inPool(3) {
		t.Fatal("pages 1,2,3 should be resident")
	}
	// Touch B so its reference bit protects it, then install E=4: the hand
	// is at frame 1 (B), skips it, and evicts C.
	p.Read(f, 1)
	p.Read(f, 4)
	if inPool(2) {
		t.Fatal("CLOCK should have evicted page 2 (page 1 was referenced)")
	}
	if !inPool(1) || !inPool(3) || !inPool(4) {
		t.Fatal("pages 1,3,4 should be resident")
	}
}

func TestBtreeStyleCrashDuringEviction(t *testing.T) {
	// Writes via a tiny pool force evictions inside install; a crash there
	// must surface as an error from Write/Append, not corrupt anything.
	p := New(2)
	p.SetFaultPolicy(FaultPolicy{Seed: 17, CrashAfterOps: 5})
	f := p.Create("t")
	var err error
	for i := 0; i < 32 && err == nil; i++ {
		_, err = p.Append(f)
		if err == nil {
			err = p.Write(f, uint32(i), bytes.Repeat([]byte{byte(i)}, PageSize))
		}
	}
	if !IsCrash(err) {
		t.Fatalf("err = %v, want crash via eviction path", err)
	}
	if err := p.SyncAll(); !IsCrash(err) {
		t.Fatalf("SyncAll after the crash: %v", err)
	}
}
