// FileLog is the journal file: the record codec of updatelog.go appended
// to a real file and made durable by fsync, so a process kill (SIGKILL,
// OOM, power) loses no acknowledged record; server.Reopen reads the
// committed prefix back after one.
//
// A commit is two calls (DESIGN.md §13). Enqueue writes the record to the
// file under the log's mutex, which fixes its place in the journal, and
// returns a handle holding the offset just past it. WaitDurable fsyncs
// through that offset, one sync at a time: a writer that finds an
// earlier sync already covered its record returns without one, so a
// sync commits every record written before it began. The durability
// contract is fsync-per-record's: WaitDurable returning nil means the
// record survives a process kill.
//
// The file is also the only copy of the shipped journal: the log keeps
// one file offset per record and Read serves a window of the synced ones
// by reading the file back, so journal shipping (server OpJournal) costs
// the primary 8 bytes of memory per acknowledged update, not the update.
package updatelog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Batch is the handle Enqueue returns: the journal offset just past its
// record. The sync that makes the record durable makes every record
// before it durable too, and WaitDurable on any of their handles finds
// that sync's outcome.
type Batch struct{ end int64 }

// FileLog is an append-only journal on the real filesystem. It is safe
// for concurrent Enqueue and WaitDurable; the caller (the server's update
// path) serializes apply+Enqueue so journal order matches apply order,
// then waits for durability outside that critical section.
type FileLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// ends[i] is the file offset just past record i-1, so record i lies
	// in [ends[i], ends[i+1]) and ends[0] is 0; it holds every record
	// written. The first durable records were recovered or covered by a
	// sync that returned: Records and Read show only those, the
	// watermark journal shipping may show a replica.
	ends    []int64
	durable int
	broken  error // first write/sync failure; poisons later appends

	smu      sync.Mutex // held across a sync: one at a time
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
	return &FileLog{f: f, path: path, ends: ends, durable: len(recs)}, recs, nil
}

// Records returns the number of records committed so far (recovered plus
// appended and synced this run).
func (l *FileLog) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Read returns up to max committed records starting at record index
// since (clamped to the committed count), read back from the file, and
// the index after the last one returned. Only records whose commit sync
// returned are ever shown: one that is written but not yet synced could
// still be lost with the process.
func (l *FileLog) Read(since, max uint64) ([]Record, uint64, error) {
	l.mu.Lock()
	f, n := l.f, uint64(l.durable)
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

// Syncs returns the number of disk syncs issued so far. With concurrent
// writers it may grow slower than Records(): one sync covers every
// record written before it.
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

// Enqueue writes one record to the journal file and returns its handle.
// The record's position in the journal is fixed here — callers that must
// keep journal order equal to apply order hold their ordering lock across
// Enqueue and may release it before WaitDurable. The record is NOT
// durable until WaitDurable on the returned handle succeeds.
func (l *FileLog) Enqueue(r Record) (*Batch, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil, errors.New("updatelog: append on closed file log")
	}
	if l.broken != nil {
		// An earlier write or sync failed; anything appended after it
		// could sit behind a torn record and silently vanish from the
		// committed prefix on recovery. Refuse instead.
		return nil, fmt.Errorf("updatelog: journal poisoned by earlier failure: %w", l.broken)
	}
	n, err := l.f.Write(encodeRecord(r))
	if err != nil {
		l.broken = fmt.Errorf("updatelog: append %s: %w", l.path, err)
		return nil, l.broken
	}
	end := l.ends[len(l.ends)-1] + int64(n)
	l.ends = append(l.ends, end)
	return &Batch{end: end}, nil
}

// WaitDurable returns once b's record is on disk, or with the error that
// kept it from getting there. It syncs the file unless a sync that
// returned already covered the record; a sync covers every record
// written before it began, so writers waiting together share it.
func (l *FileLog) WaitDurable(b *Batch) error {
	l.smu.Lock()
	defer l.smu.Unlock()
	l.mu.Lock()
	if l.ends[l.durable] >= b.end {
		l.mu.Unlock()
		return nil
	}
	f, written, broken := l.f, len(l.ends)-1, l.broken
	l.mu.Unlock()
	switch {
	case broken != nil:
		return fmt.Errorf("updatelog: journal poisoned by earlier failure: %w", broken)
	case f == nil:
		return errors.New("updatelog: sync on closed file log")
	}
	err := l.doSync(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("updatelog: commit sync %s: %w", l.path, err)
		if l.broken == nil {
			l.broken = err
		}
		return err
	}
	l.durable = written
	return nil
}

// Close syncs what was written and not yet synced, then releases the
// file handle. Committed records stay on disk for the next Reopen.
func (l *FileLog) Close() error {
	l.smu.Lock()
	defer l.smu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if written := len(l.ends) - 1; l.broken == nil && l.durable < written {
		if err = l.doSync(l.f); err == nil {
			l.durable = written
		}
	}
	err = errors.Join(err, l.f.Close())
	l.f = nil
	return err
}
