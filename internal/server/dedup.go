// The idempotency dedup table: the server-side half of exactly-once
// updates. Every successful update records its key here (and its redo
// record in the durable journal); a retry carrying the same key — whether
// it raced the original on a live server or arrived after a
// crash/restart — is answered with the original's success and never
// touches the engine. Only successes are recorded, so a key's presence is
// the whole outcome. Entries are rebuilt from the journal's records by
// Reopen, so the table survives process death exactly as far as the
// acknowledged updates it guards do.
//
// GC: a client mints its seqs in increasing order, but they need not
// arrive in that order. Goroutines sharing one client.Client race to the
// wire after minting, and a router mints keys on its shard clients for
// every caller, so seq n+1 can commit before seq n arrives. The table
// therefore keeps each committed seq, not a high-water mark (which would
// answer the late seq n as a duplicate and never apply it), in a bounded
// window per client, dropping the oldest beyond it. A retry misses the
// table only if dedupPerClient newer updates of its client committed
// between the original and the retry.
package server

import (
	"sync"

	"xbench/internal/wire"
)

// clientWindow holds one client's recently committed seqs, oldest first.
type clientWindow struct {
	seqs  map[uint64]struct{}
	order []uint64 // insertion order, for GC
}

// dedupTable is the set of idempotency keys whose updates committed.
// Safe for concurrent use.
type dedupTable struct {
	mu      sync.Mutex
	clients map[uint64]*clientWindow
}

// dedupPerClient bounds the window kept per client (see the GC note).
const dedupPerClient = 4096

func newDedupTable() *dedupTable {
	return &dedupTable{clients: map[uint64]*clientWindow{}}
}

// lookup reports whether key's update committed.
func (d *dedupTable) lookup(key wire.IdemKey) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	cw := d.clients[key.Client]
	if cw == nil {
		return false
	}
	_, ok := cw.seqs[key.Seq]
	return ok
}

// record stores key as committed, evicting the client's oldest entry
// beyond the per-client window.
func (d *dedupTable) record(key wire.IdemKey) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cw := d.clients[key.Client]
	if cw == nil {
		cw = &clientWindow{seqs: map[uint64]struct{}{}}
		d.clients[key.Client] = cw
	}
	if _, dup := cw.seqs[key.Seq]; dup {
		return // a racing retry already recorded it
	}
	cw.seqs[key.Seq] = struct{}{}
	cw.order = append(cw.order, key.Seq)
	for len(cw.order) > dedupPerClient {
		old := cw.order[0]
		cw.order = cw.order[1:]
		delete(cw.seqs, old)
	}
}
