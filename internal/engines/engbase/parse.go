package engbase

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xbench/internal/core"
	"xbench/internal/xmldom"
)

// parseBatch is about how many document bytes one hand-off to a parse
// worker carries. A goroutine wake-up costs about what parsing a 1 KB
// document does, so a hand-off per document would spend on wake-ups what
// the second core saves on DC/MD's thousands of small orders.
const parseBatch = 128 << 10

// batch is a run of documents and, once parsed, their records: recs[j]
// is docs[j]'s, up to the first that did not parse, whose error is err.
// The records are the first of set's, which the batch grows as it needs.
type batch struct {
	docs  []core.Doc
	set   *[]*xmldom.Record
	recs  []*xmldom.Record
	err   error
	taken atomic.Bool   // somebody parses, or has parsed, the batch
	done  chan struct{} // closed once the records are in
}

// recordSets holds the record sets of finished loads for the next loads'
// rings, so that loads stop allocating records once a few sets' buffers
// are large enough for their documents. It keeps a ring's sets on every
// core, and no set holding more than maxKeptSet bytes: the one record of
// a large single-document database is left to the collector.
var recordSets = make(chan []*xmldom.Record, 2*runtime.NumCPU())

const maxKeptSet = 16 * parseBatch

// parseBatches cuts docs, in order, into runs of at least parseBatch
// bytes; the last run holds what is left.
func parseBatches(docs []core.Doc) []*batch {
	var bs []*batch
	start, size := 0, 0
	for i, d := range docs {
		if size += len(d.Data); size >= parseBatch || i == len(docs)-1 {
			bs = append(bs, &batch{docs: docs[start : i+1], done: make(chan struct{})})
			start, size = i+1, 0
		}
	}
	return bs
}

// take parses b unless somebody else has taken it, and reports whether
// the caller did.
func (b *batch) take() bool {
	if !b.taken.CompareAndSwap(false, true) {
		return false
	}
	set, n := *b.set, 0
	for ; n < len(b.docs); n++ {
		if n == len(set) {
			set = append(set, new(xmldom.Record))
		}
		if b.err = xmldom.ParseRecord(set[n], b.docs[n].Data); b.err != nil {
			break
		}
	}
	*b.set, b.recs = set, set[:n]
	close(b.done)
	return true
}

// claim returns once bs[i] is parsed: by the caller, when no worker has
// taken it, or by a worker, while the caller parsed the batches after it,
// up to ahead of them, that no worker had taken yet.
func claim(bs []*batch, i, ahead int) {
	if bs[i].take() {
		return
	}
	for k := i + 1; k <= i+ahead && k < len(bs); k++ {
		select {
		case <-bs[i].done:
			return
		default:
			bs[k].take()
		}
	}
	<-bs[i].done
}

// ParseDocs is the parsing half of a Store's LoadDocs: it parses every
// document of db into a record (xmldom.ParseRecord) and calls store with
// the document and its record, in database order, on the caller's
// goroutine — so what store writes, and in which order, is what a
// sequential parse-then-write loop writes. A document that does not
// parse fails the load where it stands, after every document before it
// was stored, with "<engine>: <document name>: <syntax error>"; ctx is
// checked before each document.
//
// Parsing runs ahead of store: db is cut into batches of about parseBatch
// bytes, which GOMAXPROCS−1 workers parse up to two batches per worker
// ahead of the one being stored. A batch no worker has taken by the time
// store gets to it the caller parses itself — which is all that happens
// with fewer than two batches, or one core. While it waits for a batch a
// worker is still parsing, the caller parses later batches no worker has
// taken yet. The workers have exited when ParseDocs returns, so a load
// leaves no goroutine behind.
//
// A record is store's until store returns: the load owns its records as
// a ring of ahead+1 sets, and batch k parses into the set batch
// k−(ahead+1) parsed into, which the writer has stored by then — it hands
// batch k to a worker, or parses it itself, only once every batch before
// k−ahead is stored. So store copies out what it keeps. The sets are
// taken from recordSets and handed back to it for the next load.
func ParseDocs(ctx context.Context, engine string, db *core.Database, store func(d *core.Doc, rec *xmldom.Record) error) error {
	bs := parseBatches(db.Docs)
	workers := 0
	if len(bs) >= 2 {
		workers = min(runtime.GOMAXPROCS(0)-1, len(bs))
	}
	ahead := 2 * workers // batches handed out beyond the one being stored
	sets := make([][]*xmldom.Record, ahead+1)
	for i := range sets {
		select {
		case sets[i] = <-recordSets:
		default:
		}
	}
	defer func() { // after the workers have exited
		for _, set := range sets {
			var held int64
			for _, rec := range set {
				held += rec.Footprint()
			}
			if held <= maxKeptSet {
				select {
				case recordSets <- set:
				default:
				}
			}
		}
	}()
	for k, b := range bs {
		b.set = &sets[k%len(sets)]
	}
	todo := make(chan *batch, len(bs)) // never full, so a send never blocks
	for _, b := range bs[:min(ahead, len(bs))] {
		todo <- b
	}
	if workers > 0 {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := range todo {
					b.take()
				}
			}()
		}
		defer func() {
			for _, b := range bs {
				b.taken.Store(true) // the load is over: parse nothing more
			}
			close(todo)
			wg.Wait()
		}()
	}
	for i, b := range bs {
		if workers > 0 && i+ahead < len(bs) {
			todo <- bs[i+ahead]
		}
		claim(bs, i, ahead)
		for j := range b.docs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if j == len(b.recs) {
				return fmt.Errorf("%s: %s: %w", engine, b.docs[j].Name, b.err)
			}
			if err := store(&b.docs[j], b.recs[j]); err != nil {
				return err
			}
		}
	}
	return nil
}
