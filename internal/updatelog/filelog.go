// FileLog is the journal file: the record codec of updatelog.go appended
// to a real file and made durable by fsync, so a process kill (SIGKILL,
// OOM, power) loses no acknowledged record; server.Reopen reads the
// committed prefix back after one.
//
// A commit is one call (DESIGN.md §13). Append writes the record to the
// file and fsyncs it under the log's writer lock, so records lie in the
// file in the order their Appends ran and each has a sync of its own;
// only once that sync returned does the durable mark move past it.
// Append returning nil means the record survives a process kill.
//
// The file is also the only copy of the shipped journal: Read serves a
// window of the synced records by reading the file back, byte for byte,
// so journal shipping (server OpJournal) keeps nothing of an update in
// the primary's memory and a replica checks every record it is sent
// against the checksum it was written with. The log's memory does not
// grow with the journal: one mark, the durable end. Read, Records and
// Synced take only the lock that guards it, never the writer lock, so a
// journal pull never waits behind an fsync. A reader caught up at the
// durable end waits on Synced for the next commit instead of asking
// again on a timer.
package updatelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Batch is what Enqueue returns, and holds nothing. It is kept, with
// Enqueue and WaitDurable, for benchmarks/e2e's journal probe until
// ROADMAP item 1 moves the probe to Append.
type Batch struct{}

// A mark is a place in the journal: the offset just past a record and
// the number of records up to there.
type mark struct {
	off int64
	n   int
}

// ErrPosition refuses a Read from a position this journal does not hold:
// past its committed end, or after a record other than the one the
// reader names. A reader that gets it was following another journal.
var ErrPosition = errors.New("updatelog: position not in this journal")

// FileLog is an append-only journal on the real filesystem. It is safe
// for concurrent use. The server's update path calls Append inside the
// engine's commit, under its update mutex, so journal order is apply
// order.
type FileLog struct {
	path string
	wmu  sync.Mutex // held across an append's write and sync, and by Close

	mu sync.Mutex // guards what follows; never held across a write or sync
	f  *os.File
	// durable ends the last record recovered or appended whose sync
	// returned. Records and Read show only this prefix, the watermark
	// journal shipping may show a replica.
	durable mark
	broken  error // first write/sync failure; poisons later appends
	// synced is Synced's channel, nil while nobody waits (so a commit
	// with no reader allocates nothing).
	synced chan struct{}

	syncs    atomic.Int64
	syncHook func(*os.File) error // test seam; nil means (*os.File).Sync
}

// OpenFile opens (or creates) the journal at path and prepares it for
// appending. An existing file is scanned for its committed prefix — the
// longest run of intact records — and truncated to it, so a record torn
// by a crash mid-append never leaves garbage in front of later appends.
// The committed records are returned for replay.
func OpenFile(path string) (*FileLog, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("updatelog: open %s: %w", path, err)
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("updatelog: read %s: %w", path, err)
	}
	recs, committed := Decode(buf)
	if committed < len(buf) {
		if err := f.Truncate(int64(committed)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("updatelog: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(committed), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("updatelog: seek %s: %w", path, err)
	}
	return &FileLog{f: f, path: path, durable: mark{int64(committed), len(recs)}}, recs, nil
}

// Records returns the number of records committed so far (recovered plus
// appended and synced this run).
func (l *FileLog) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable.n
}

// Read returns the committed journal bytes from offset since, exactly
// as the file holds them: whole records only, at most limit bytes of
// them, unless the first record alone is longer, which then comes by
// itself. An empty window means the reader is caught up. prev names the
// record since follows by its Sum (ignored at offset 0): a position past
// the committed end, or one after another record, fails with
// ErrPosition. Only records whose commit sync returned are ever shown:
// one that is written but not yet synced could still be lost with the
// process.
func (l *FileLog) Read(since, prev uint64, limit int) ([]byte, error) {
	l.mu.Lock()
	f, end, broken := l.f, uint64(l.durable.off), l.broken
	l.mu.Unlock()
	switch {
	case since > end:
		return nil, fmt.Errorf("%w: offset %d is past the committed end %d", ErrPosition, since, end)
	case f == nil:
		return nil, errors.New("updatelog: read on closed file log")
	case since == end && broken != nil:
		// Nothing will follow: say so rather than answer "caught up".
		return nil, fmt.Errorf("updatelog: journal poisoned by earlier failure: %w", broken)
	}
	want := max(limit, recHeaderSize)
	for {
		head := min(since, 8) // the checksum ending the record before the window
		buf := make([]byte, head+min(end-since, uint64(want)))
		if _, err := f.ReadAt(buf, int64(since-head)); err != nil {
			return nil, fmt.Errorf("updatelog: read %s: %w", l.path, err)
		}
		if since > 0 && (head < 8 || binary.BigEndian.Uint64(buf) != prev) {
			return nil, fmt.Errorf("%w: the record ending at offset %d is not the one named", ErrPosition, since)
		}
		buf = buf[head:]
		n := 0
		for {
			sz, ok := recordSize(buf[n:])
			if !ok || n+sz > len(buf) {
				break
			}
			n += sz
		}
		if n > 0 || len(buf) == 0 {
			return buf[:n], nil
		}
		// The first record alone is longer than limit: read it by itself.
		var ok bool
		if want, ok = recordSize(buf); !ok {
			return nil, fmt.Errorf("updatelog: %s: no record at offset %d", l.path, since)
		}
	}
}

// Synced returns a channel closed the next time the durable mark moves or
// the log is poisoned or closed. A caught-up reader takes it before its
// Read and waits on it after, so a commit between the two still wakes it.
func (l *FileLog) Synced() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.synced == nil {
		l.synced = make(chan struct{})
	}
	ch := l.synced
	if l.f == nil || l.broken != nil {
		l.wake()
	}
	return ch
}

// wake closes Synced's channel, if any; l.mu is held.
func (l *FileLog) wake() {
	if l.synced != nil {
		close(l.synced)
		l.synced = nil
	}
}

// Syncs returns the number of disk syncs issued so far: one per Append
// that got its record written.
func (l *FileLog) Syncs() int64 { return l.syncs.Load() }

func (l *FileLog) doSync(f *os.File) error {
	l.syncs.Add(1)
	if l.syncHook != nil {
		return l.syncHook(f)
	}
	return f.Sync()
}

// Append journals one record, given as its encoding — AppendRecord's
// bytes, or those DecodeOne accepted from a served update's request —
// by writing it to the file and syncing it. The sync is the commit
// point: once Append returns nil the record survives a process kill and
// Reopen will replay it; on error the record is torn or absent and
// recovery treats the update as never acknowledged.
func (l *FileLog) Append(enc []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	// f and broken change only under wmu, which this call holds.
	if l.f == nil {
		return errors.New("updatelog: append on closed file log")
	}
	if l.broken != nil {
		// An earlier write or sync failed; anything appended after it
		// could sit behind a torn record and silently vanish from the
		// committed prefix on recovery. Refuse instead.
		return fmt.Errorf("updatelog: journal poisoned by earlier failure: %w", l.broken)
	}
	n, err := l.f.Write(enc)
	if err != nil {
		err = fmt.Errorf("updatelog: append %s: %w", l.path, err)
	} else if err = l.doSync(l.f); err != nil {
		err = fmt.Errorf("updatelog: commit sync %s: %w", l.path, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.broken = err
	} else {
		l.durable = mark{l.durable.off + int64(n), l.durable.n + 1}
	}
	l.wake()
	return err
}

// Enqueue appends r with Append, which syncs it. It is kept for
// benchmarks/e2e's journal probe until ROADMAP item 1.
func (l *FileLog) Enqueue(r Record) (*Batch, error) {
	return nil, l.Append(AppendRecord(nil, r))
}

// WaitDurable returns nil: the Enqueue before it synced its record. It
// is kept for benchmarks/e2e's journal probe until ROADMAP item 1.
func (l *FileLog) WaitDurable(*Batch) error { return nil }

// Close releases the file handle, after any Append under way. It issues
// no sync: every record Append acknowledged is already on disk for the
// next Reopen.
func (l *FileLog) Close() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	l.wake()
	return err
}
