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
type batch struct {
	docs  []core.Doc
	recs  []*xmldom.Record
	err   error
	taken atomic.Bool   // somebody parses, or has parsed, the batch
	done  chan struct{} // closed once the records are in
}

// records holds the records of stored documents for later batches to
// parse into, so that a load stops allocating once the buffers of a few
// batches' records are large enough for its documents.
var records = sync.Pool{New: func() any { return new(xmldom.Record) }}

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
	b.recs = make([]*xmldom.Record, 0, len(b.docs))
	for _, d := range b.docs {
		rec := records.Get().(*xmldom.Record)
		if b.err = xmldom.ParseRecord(rec, d.Data); b.err != nil {
			records.Put(rec)
			break
		}
		b.recs = append(b.recs, rec)
	}
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
// A record is store's until store returns: once its batch is stored,
// later batches parse into its buffers, so store copies out what it
// keeps.
func ParseDocs(ctx context.Context, engine string, db *core.Database, store func(d *core.Doc, rec *xmldom.Record) error) error {
	bs := parseBatches(db.Docs)
	workers := 0
	if len(bs) >= 2 {
		workers = min(runtime.GOMAXPROCS(0)-1, len(bs))
	}
	ahead := 2 * workers               // batches handed out beyond the one being stored
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
		for _, rec := range b.recs {
			records.Put(rec) // stored: later batches parse into it
		}
		b.recs = nil
	}
	return nil
}
