// Package router is the sharded serving tier: a coordinator that
// hash-partitions documents across N engine shards — each an independent
// wire server, typically `xbench serve` processes — and satisfies
// core.Engine itself, so the driver, facade and CLI run against a cluster
// exactly as they run against one engine.
//
// Placement is a consistent-hash ring (this file): every shard projects
// DefaultVnodes virtual points onto a 64-bit circle and a document
// belongs to the shard owning the first point at or clockwise from the
// document name's hash. A ring one shard larger steals only the key
// ranges the new shard's points carve out of existing arcs — no name
// moves between two old shards (TestRingGrowMovesOnlyToNewShard) — so a
// future resharding moves 1/N of the documents, not all of them.
//
// The same ring function runs on both sides of the wire: the router uses
// it to route, and `xbench serve --shard=i/n` uses Partition to load only
// its slice of a deterministically generated database, so a SIGKILLed
// shard can recover its partition from scratch (base generation + its own
// journal) without asking the router what it owned.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"

	"xbench/internal/core"
)

// DefaultVnodes is the virtual-node count per shard of every ring the
// router and `xbench serve --shard` build: both sides must agree on it,
// so it is not a knob. 64 points per shard keeps the expected imbalance
// between shards in the low single-digit percent range while
// construction and lookup stay trivially cheap.
const DefaultVnodes = 64

// point is one virtual node on the circle.
type point struct {
	hash  uint64
	shard int
}

// Ring is an immutable consistent-hash ring over shard indices 0..N-1.
type Ring struct {
	points []point // sorted by hash
}

// NewRing builds the ring for shard indices 0..shards-1 with vnodes
// virtual points each (<= 0 selects DefaultVnodes). Construction is fully
// deterministic: every process that agrees on (shards, vnodes) agrees on
// ownership of every name.
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		panic("router: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{points: make([]point, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashName(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Owner returns the shard index owning a document name: the shard of
// the first point at or clockwise from the name's hash (wrapping at the
// top of the circle).
func (r *Ring) Owner(name string) int {
	h := hashName(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hashName hashes a document name onto the circle: FNV-64a (stable across
// processes and Go releases, unlike maphash) through a splitmix64
// finalizer. The finalizer matters — FNV barely avalanches on inputs that
// differ only in a trailing digit, which is exactly what vnode labels and
// generated document names look like, and without it a 4-shard ring gave
// one shard 1.8× its fair share.
func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Partition returns a shallow copy of db holding only the documents the
// ring assigns to shard. `xbench serve --shard=i/n` loads exactly this
// slice, so the union of all shards' partitions is the whole database and
// the intersection of any two is empty.
func (r *Ring) Partition(db *core.Database, shard int) *core.Database {
	part := *db
	part.Docs = nil
	for _, d := range db.Docs {
		if r.Owner(d.Name) == shard {
			part.Docs = append(part.Docs, d)
		}
	}
	return &part
}
