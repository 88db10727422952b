package pager

import (
	"encoding/binary"
	"testing"

	"xbench/internal/metrics"
)

// buildFile creates a file of n pages, each stamped with its page number,
// flushed to "disk" so later reads are genuine misses.
func buildFile(t *testing.T, p *Pager, name string, n int) FileID {
	t.Helper()
	f := p.Create(name)
	buf := make([]byte, 8)
	for i := 0; i < n; i++ {
		no, err := p.Append(f)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(buf, uint64(i))
		if err := p.Write(f, no, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestScanResistance is the policy's reason to exist: a one-pass
// sequential scan of a file much larger than the pool must not evict a
// hot working set that was touched repeatedly before the scan.
func TestScanResistance(t *testing.T) {
	const (
		pool = 64
		hotN = 16
	)
	p := New(pool)
	hot := buildFile(t, p, "hot", hotN)
	big := buildFile(t, p, "big", 4*pool) // 4x the pool: guaranteed thrash without protection
	p.ColdReset()

	// Heat the working set: every hot page is hit, so its reference bit
	// is set.
	for round := 0; round < 3; round++ {
		for i := 0; i < hotN; i++ {
			if _, err := p.Read(hot, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One-pass sequential scan of the big file.
	for i := 0; i < 4*pool; i++ {
		if _, err := p.Read(big, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Every hot page must still be resident.
	mark := p.Metrics().Snapshot()
	for i := 0; i < hotN; i++ {
		if _, err := p.Read(hot, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Metrics().Snapshot().Delta(mark)
	if s.Get("pager.read") != 0 || s.Get("pager.hit") != int64(hotN) {
		t.Fatalf("hot set evicted by scan: re-reads reads=%d hits=%d (want 0/%d)",
			s.Get("pager.read"), s.Get("pager.hit"), hotN)
	}
}

// TestReadaheadTurnsScanMissesIntoHits checks that a detected sequential
// stream prefetches ahead of the demand reads: most of the scan's reads
// are served by prefetched frames, and the counters agree.
func TestReadaheadTurnsScanMissesIntoHits(t *testing.T) {
	const pages = 256
	p := New(64)
	f := buildFile(t, p, "seq", pages)
	p.ColdReset()
	mark := p.Metrics().Snapshot()

	for i := 0; i < pages; i++ {
		got, err := p.Read(f, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if n := binary.LittleEndian.Uint64(got[:8]); n != uint64(i) {
			t.Fatalf("page %d holds %d (prefetch corruption)", i, n)
		}
	}

	s := p.Metrics().Snapshot().Delta(mark)
	reads, hits, prefetched := s.Get("pager.read"), s.Get("pager.hit"), s.Get("pager.readahead.issued")
	if prefetched == 0 {
		t.Fatal("sequential scan issued no readahead")
	}
	if s.Get("pager.readahead.hit") == 0 {
		t.Fatal("no demand read was served by a prefetched frame")
	}
	// Demand misses + hits must cover the whole scan; with readahead the
	// large majority of demand reads should be hits.
	if hits < pages/2 {
		t.Fatalf("readahead ineffective: hits=%d of %d pages (reads=%d prefetched=%d)",
			hits, pages, reads, prefetched)
	}
	// Every page is still read from disk exactly once (no duplicated I/O).
	if reads != pages {
		t.Fatalf("scan cost %d disk reads for %d pages", reads, pages)
	}
}

// TestReadaheadDisabledForTinyPools: pools too small for a stream ring
// must behave exactly like the unprotected pager on scans (no prefetch
// self-pollution).
func TestReadaheadDisabledForTinyPools(t *testing.T) {
	p := New(4) // readaheadWindow: min(8, 4/4=1) -> disabled
	f := buildFile(t, p, "seq", 32)
	p.ColdReset()
	mark := p.Metrics().Snapshot()
	for i := 0; i < 32; i++ {
		if _, err := p.Read(f, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Metrics().Snapshot().Delta(mark).Get("pager.readahead.issued"); n != 0 {
		t.Fatalf("tiny pool prefetched %d pages", n)
	}
}

// TestStreamResetOnRandomAccess: a random jump breaks the streak and
// releases the ring; the next sequential run re-detects from scratch.
func TestStreamResetOnRandomAccess(t *testing.T) {
	p := New(64)
	f := buildFile(t, p, "mix", 128)
	p.ColdReset()

	for i := 0; i < 10; i++ { // sequential: stream detected
		p.Read(f, uint32(i))
	}
	p.Read(f, 100) // jump: streak broken

	for i := 40; i < 44; i++ { // too short to re-trigger prefetch until threshold
		p.Read(f, uint32(i))
	}
	// Re-detection happens at the threshold-th consecutive miss; just
	// assert the pager stayed coherent and served correct data.
	got, err := p.Read(f, 44)
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint64(got[:8]); n != 44 {
		t.Fatalf("page 44 holds %d", n)
	}
}

// TestEvictionMetrics: the pager.evict.* / pager.readahead.* counters
// must fire in the registry SetMetrics bound.
func TestEvictionMetrics(t *testing.T) {
	p := New(32)
	reg := metrics.NewRegistry()
	p.SetMetrics(reg)
	f := buildFile(t, p, "seq", 128)
	p.ColdReset()
	for i := 0; i < 128; i++ {
		if _, err := p.Read(f, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["pager.readahead.issued"] == 0 {
		t.Fatal("pager.readahead.issued never fired")
	}
	if snap.Counters["pager.readahead.hit"] == 0 {
		t.Fatal("pager.readahead.hit never fired")
	}
	if snap.Counters["pager.evict"] == 0 {
		t.Fatal("pager.evict never fired")
	}
	if snap.Counters["pager.evict.scan"] == 0 {
		t.Fatal("pager.evict.scan never fired on a 4x-pool scan")
	}
}
