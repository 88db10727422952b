package server

import (
	"errors"
	"testing"
	"time"

	"xbench/internal/wire"
)

// TestAdmission: a free semaphore admits without a timer (no allocation
// at all), a full one still sheds with ErrOverloaded once QueueWait has
// passed, a slot freed inside the wait admits the waiter, and a draining
// server answers ErrShutdown.
func TestAdmission(t *testing.T) {
	const wait = 20 * time.Millisecond
	s := New(nil, Config{MaxInflight: 1, QueueWait: wait})
	if n := testing.AllocsPerRun(100, func() {
		if err := s.admit(); err != nil {
			t.Fatal(err)
		}
		s.release()
	}); n != 0 {
		t.Fatalf("admission to a free slot allocates %v times, want 0 (no timer)", n)
	}

	if err := s.admit(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.admit(); !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("admit with every slot taken = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d < wait {
		t.Fatalf("shed after %v, before QueueWait (%v) had passed", d, wait)
	}
	if got := s.rRejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	time.AfterFunc(wait/4, s.release)
	if err := s.admit(); err != nil {
		t.Fatalf("slot freed inside the wait: %v", err)
	}
	s.release()
	if s.Inflight() != 0 || s.rAdmitted.Value() != 103 {
		t.Fatalf("inflight %d admitted %d, want 0 and 103", s.Inflight(), s.rAdmitted.Value())
	}

	close(s.done)
	if err := s.admit(); !errors.Is(err, wire.ErrShutdown) {
		t.Fatalf("admit on a draining server = %v, want ErrShutdown", err)
	}
}
