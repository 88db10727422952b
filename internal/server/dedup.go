// The idempotency dedup table: the server-side half of exactly-once
// updates. Every successful keyed update records its response frame here
// (and its redo record in the durable journal); a retry carrying the same
// key — whether it raced the original on a live server or arrived after a
// crash/restart — gets the original response back and never touches the
// engine. Entries are rebuilt from the journal's keyed records by Reopen,
// so the table survives process death exactly as far as the acknowledged
// updates it guards do.
//
// GC: per-client seqs are monotonic and a client retries only its most
// recent update (updates are serial per logical op), so the table keeps a
// bounded window of the highest seqs per client and drops the oldest
// beyond it. A retry can therefore only miss the table if the client
// issued dedupPerClient newer updates in between — which the serial
// client protocol makes impossible.
package server

import (
	"sync"

	"xbench/internal/wire"
)

// clientWindow holds one client's recent outcomes, oldest first.
type clientWindow struct {
	frames map[uint64]wire.Frame // seq -> response frame
	order  []uint64              // insertion order, for GC
}

// dedupTable maps idempotency keys to the response frames their updates
// produced. Safe for concurrent use.
type dedupTable struct {
	mu      sync.Mutex
	clients map[uint64]*clientWindow
	size    int
}

// dedupPerClient bounds the window kept per client (see the GC note).
const dedupPerClient = 4096

func newDedupTable() *dedupTable {
	return &dedupTable{clients: map[uint64]*clientWindow{}}
}

// lookup returns the recorded response for key, if any.
func (d *dedupTable) lookup(key wire.IdemKey) (wire.Frame, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cw := d.clients[key.Client]
	if cw == nil {
		return wire.Frame{}, false
	}
	f, ok := cw.frames[key.Seq]
	return f, ok
}

// record stores the response for key, evicting the client's oldest entry
// beyond the per-client window.
func (d *dedupTable) record(key wire.IdemKey, f wire.Frame) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cw := d.clients[key.Client]
	if cw == nil {
		cw = &clientWindow{frames: map[uint64]wire.Frame{}}
		d.clients[key.Client] = cw
	}
	if _, dup := cw.frames[key.Seq]; dup {
		return // a racing retry already recorded it
	}
	cw.frames[key.Seq] = f
	cw.order = append(cw.order, key.Seq)
	d.size++
	for len(cw.order) > dedupPerClient {
		old := cw.order[0]
		cw.order = cw.order[1:]
		delete(cw.frames, old)
		d.size--
	}
}
