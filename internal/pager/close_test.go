package pager

import (
	"bytes"
	"errors"
	"testing"
)

func TestCloseFlushesAndReleasesFiles(t *testing.T) {
	p := New(4)
	f := p.Create("t")
	no, err := p.Append(f)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("z"), 64)
	if err := p.Write(f, no, 0, data); err != nil {
		t.Fatal(err)
	}
	if p.OpenFiles() != 1 {
		t.Fatalf("OpenFiles = %d before close", p.OpenFiles())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p.OpenFiles() != 0 {
		t.Fatalf("OpenFiles = %d after close", p.OpenFiles())
	}
	// Double close must be a safe no-op — engines close defensively.
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOpsAfterCloseFail(t *testing.T) {
	p := New(4)
	f := p.Create("t")
	if _, err := p.Append(f); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(f, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after close: %v", err)
	}
	if err := p.Write(f, 0, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after close: %v", err)
	}
	if _, err := p.Append(f); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close: %v", err)
	}
	if err := p.DropFiles(); !errors.Is(err, ErrClosed) {
		t.Fatalf("DropFiles after close: %v", err)
	}
	if err := p.Sync(f); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close: %v", err)
	}
	if err := p.SyncAll(); !errors.Is(err, ErrClosed) {
		t.Fatalf("SyncAll after close: %v", err)
	}
}

// TestReadRacingCloseFailsClosed: a read whose pool miss takes the
// exclusive latch after Close ran fails with ErrClosed, like every other
// operation after Close, not with a missing-page error.
func TestReadRacingCloseFailsClosed(t *testing.T) {
	const readers, pages = 4, 64
	for round := 0; round < 300; round++ {
		p := New(4)
		f := fillPages(t, p, "t", pages)
		p.ColdReset()
		done := make(chan error, readers)
		for g := 0; g < readers; g++ {
			go func(no uint32) {
				for ; ; no = (no + 5) % pages {
					if _, err := p.Read(f, no); err != nil {
						done <- err
						return
					}
				}
			}(uint32(g * pages / readers))
		}
		p.Close()
		for g := 0; g < readers; g++ {
			if err := <-done; !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: read racing Close: %v", round, err)
			}
		}
	}
}
