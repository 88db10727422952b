// FileLog is the journal file: the record codec of updatelog.go appended
// to a real file and made durable by fsync, so a process kill (SIGKILL,
// OOM, power) loses no acknowledged record; server.Reopen reads the
// committed prefix back after one.
//
// Commits are grouped (DESIGN.md §13): Enqueue serializes a record into
// the forming batch and returns a handle; a single flusher goroutine
// seals the batch, writes it with one syscall and fsyncs it with one
// sync. WaitDurable blocks until that batch's sync returned — records
// enqueued while a sync is in progress pile into the next batch, so
// under W concurrent writers one disk sync commits up to W records. The
// durability contract is unchanged from fsync-per-record: WaitDurable
// returning nil still means the record survives a process kill, because
// no caller is released before its batch's fsync completed.
//
// The file is also the only copy of the shipped journal: the log keeps
// one file offset per committed record and Read serves a window of them by
// reading the file back, so journal shipping (server OpJournal) costs the
// primary 8 bytes of memory per acknowledged update, not the update.
package updatelog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Batch is a handle to one group-commit unit: every record enqueued into
// it becomes durable (or fails) together, with one write and one sync.
type Batch struct {
	buf  []byte
	ends []int         // ends[i]: offset in buf just past record i
	done chan struct{} // closed after the batch's write+sync finished
	err  error         // set before done is closed
}

// FileLog is an append-only, group-committed journal on the real
// filesystem. It is safe for concurrent Append/Enqueue; the caller (the
// server's update path) serializes apply+Enqueue so journal order matches
// apply order, then waits for durability outside that critical section.
type FileLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// ends[i] is the file offset just past committed record i-1, so
	// record i lies in [ends[i], ends[i+1]) and ends[0] is 0. A record
	// (recovered, or flushed this run) is entered only once its batch's
	// sync returned, so the count is the durable watermark journal
	// shipping may show a replica.
	ends     []int64
	broken   error  // first write/sync failure; poisons later appends
	cur      *Batch // forming batch, nil when none
	flushing bool   // a flushLoop goroutine is draining batches
	flushWg  sync.WaitGroup
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
	var recs []Record
	ends := []int64{0}
	committed := 0
	rest := buf
	for len(rest) > 0 {
		r, sz, ok := decodeRecord(rest)
		if !ok {
			break // torn tail: the record was mid-append at the crash
		}
		recs = append(recs, r)
		committed += sz
		ends = append(ends, int64(committed))
		rest = rest[sz:]
	}
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
	return &FileLog{f: f, path: path, ends: ends}, recs, nil
}

// Records returns the number of records committed so far (recovered plus
// appended this run).
func (l *FileLog) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ends) - 1
}

// Read returns up to max committed records starting at record index
// since (clamped to the committed count), read back from the file, and
// the index after the last one returned. Only records whose commit sync
// returned are ever shown: one that is written but not yet synced could
// still be lost with the process.
func (l *FileLog) Read(since, max uint64) ([]Record, uint64, error) {
	l.mu.Lock()
	f, n := l.f, uint64(len(l.ends)-1)
	lo := min(since, n)
	hi := min(n, lo+max)
	start, end := l.ends[lo], l.ends[hi]
	l.mu.Unlock()
	if lo == hi {
		return nil, hi, nil
	}
	if f == nil {
		return nil, lo, errors.New("updatelog: read on closed file log")
	}
	buf := make([]byte, end-start)
	if _, err := f.ReadAt(buf, start); err != nil {
		return nil, lo, fmt.Errorf("updatelog: read %s: %w", l.path, err)
	}
	recs := make([]Record, 0, hi-lo)
	for len(buf) > 0 {
		r, sz, ok := decodeRecord(buf)
		if !ok {
			return nil, lo, fmt.Errorf("updatelog: %s: committed record %d does not decode", l.path, lo+uint64(len(recs)))
		}
		recs = append(recs, r)
		buf = buf[sz:]
	}
	return recs, hi, nil
}

// Syncs returns the number of disk syncs issued so far. Under group
// commit and concurrent writers it grows slower than Records() — the
// updates-per-fsync ratio is the whole point.
func (l *FileLog) Syncs() int64 { return l.syncs.Load() }

func (l *FileLog) doSync(f *os.File) error {
	l.syncs.Add(1)
	if l.syncHook != nil {
		return l.syncHook(f)
	}
	return f.Sync()
}

// Append journals one record and waits for it to be durable. The sync is
// the commit point: once Append returns nil the record survives a
// process kill and Reopen will replay it; on error the record is torn or
// absent and recovery treats the update as never acknowledged.
func (l *FileLog) Append(r Record) error {
	b, err := l.Enqueue(r)
	if err != nil {
		return err
	}
	return l.WaitDurable(b)
}

// Enqueue serializes one record into the forming batch and returns the
// batch handle. The record's position in the journal is fixed here —
// callers that must keep journal order equal to apply order hold their
// ordering lock across Enqueue and may release it before WaitDurable.
// The record is NOT durable until WaitDurable on the returned batch
// succeeds.
func (l *FileLog) Enqueue(r Record) (*Batch, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil, errors.New("updatelog: append on closed file log")
	}
	if l.broken != nil {
		// A previous batch failed mid-write; anything appended after it
		// could sit behind a torn record and silently vanish from the
		// committed prefix on recovery. Refuse instead.
		return nil, fmt.Errorf("updatelog: journal poisoned by earlier failure: %w", l.broken)
	}
	if l.cur == nil {
		l.cur = &Batch{done: make(chan struct{})}
	}
	l.cur.buf = append(l.cur.buf, encodeRecord(r)...)
	l.cur.ends = append(l.cur.ends, len(l.cur.buf))
	b := l.cur
	if !l.flushing {
		l.flushing = true
		l.flushWg.Add(1)
		go l.flushLoop()
	}
	return b, nil
}

// WaitDurable blocks until b's write+sync finished and returns its
// outcome. Nil means every record in the batch is on disk.
func (l *FileLog) WaitDurable(b *Batch) error {
	<-b.done
	return b.err
}

// flushLoop drains forming batches one at a time: seal, one Write, one
// Sync, release the batch's waiters, repeat until no batch formed while
// the previous one was syncing. It exits when idle — a quiet journal
// costs no goroutine.
func (l *FileLog) flushLoop() {
	defer l.flushWg.Done()
	for {
		l.mu.Lock()
		b := l.cur
		l.cur = nil
		if b == nil {
			l.flushing = false
			l.mu.Unlock()
			return
		}
		f := l.f
		l.mu.Unlock()
		// IO happens outside the lock: records for the NEXT batch keep
		// enqueueing while this one syncs — that overlap is the group.
		var err error
		if f == nil {
			err = errors.New("updatelog: append on closed file log")
		} else if _, werr := f.Write(b.buf); werr != nil {
			err = fmt.Errorf("updatelog: append %s: %w", l.path, werr)
		} else if serr := l.doSync(f); serr != nil {
			err = fmt.Errorf("updatelog: commit sync %s: %w", l.path, serr)
		}
		l.mu.Lock()
		if err == nil {
			base := l.ends[len(l.ends)-1]
			for _, end := range b.ends {
				l.ends = append(l.ends, base+int64(end))
			}
		} else if l.broken == nil {
			l.broken = err
		}
		l.mu.Unlock()
		b.err = err
		close(b.done)
	}
}

// Close flushes any forming batch, then releases the file handle.
// Committed records stay on disk for the next Reopen.
func (l *FileLog) Close() error {
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	// Drain the flusher: it exits only once no batch is forming, so every
	// enqueued-before-Close record gets its write+sync. (Enqueues racing
	// with Close may still land after the drain; they fail their flush
	// against the closed handle, which is an error, not a lost ack.)
	l.flushWg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
