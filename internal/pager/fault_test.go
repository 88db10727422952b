package pager

import (
	"bytes"
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
		if err := p.Write(f, uint32(i), 0, bytes.Repeat([]byte{byte(i + 1)}, PageSize)); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	if err := p.Sync(f); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return f
}

func TestCrashHaltsAllIO(t *testing.T) {
	p := New(2)
	f := fillPages(t, p, "t", 4)
	p.ColdReset()
	p.SetFaultPolicy(FaultPolicy{CrashAfterOps: 2})
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
	if err := p.Write(f, 0, 0, nil); !IsCrash(err) {
		t.Fatalf("Write while crashed: %v", err)
	}
	if _, err := p.Append(f); !IsCrash(err) {
		t.Fatalf("Append while crashed: %v", err)
	}
	if err := p.DropFiles(); !IsCrash(err) {
		t.Fatalf("DropFiles while crashed: %v", err)
	}
	// A crashed pager stays crashed: a new policy does not bring the
	// machine back, even one without a crash point.
	p.SetFaultPolicy(FaultPolicy{})
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
		p.SetFaultPolicy(FaultPolicy{CrashAfterOps: crashAt})
		f := p.Create("t")
		var err error
		for i := 0; i < 6 && err == nil; i++ {
			_, err = p.Append(f)
			if err == nil {
				err = p.Write(f, uint32(i), 0, image(i))
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
	p.SetFaultPolicy(FaultPolicy{})
	if c, _ := p.Read(f, 0); &c[0] != &a[0] {
		t.Fatal("a fault policy made Read copy")
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
		if err := p.Write(f, uint32(i), 0, []byte{byte(i)}); err != nil {
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
	p.SetFaultPolicy(FaultPolicy{CrashAfterOps: 5})
	f := p.Create("t")
	var err error
	for i := 0; i < 32 && err == nil; i++ {
		_, err = p.Append(f)
		if err == nil {
			err = p.Write(f, uint32(i), 0, bytes.Repeat([]byte{byte(i)}, PageSize))
		}
	}
	if !IsCrash(err) {
		t.Fatalf("err = %v, want crash via eviction path", err)
	}
	if err := p.SyncAll(); !IsCrash(err) {
		t.Fatalf("SyncAll after the crash: %v", err)
	}
}
