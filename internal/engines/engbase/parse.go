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

// batch is a run of documents and, once parsed, their trees: trees[j] is
// docs[j]'s, up to the first that did not parse, whose error is err.
type batch struct {
	docs  []core.Doc
	trees []*xmldom.Node
	err   error
	taken atomic.Bool   // somebody parses, or has parsed, the batch
	done  chan struct{} // closed once the trees are in
}

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
	b.trees = make([]*xmldom.Node, len(b.docs))
	for j, d := range b.docs {
		if b.trees[j], b.err = xmldom.Parse(d.Data); b.err != nil {
			break
		}
	}
	close(b.done)
	return true
}

// claim reports whether bs[i] is the caller's to parse, document by
// document as it stores them, because no worker has taken it. Otherwise
// bs[i] is parsed when claim returns; while a worker was parsing it, the
// caller parsed the batches after it, up to ahead of them, that no
// worker had taken yet.
func claim(bs []*batch, i, ahead int) bool {
	if bs[i].taken.CompareAndSwap(false, true) {
		return true
	}
	for k := i + 1; k <= i+ahead && k < len(bs); k++ {
		select {
		case <-bs[i].done:
			return false
		default:
			bs[k].take()
		}
	}
	<-bs[i].done
	return false
}

// tree returns docs[j]'s tree: parsed now if the batch is the caller's
// own, else what take left.
func (b *batch) tree(j int, own bool) (*xmldom.Node, error) {
	if own {
		return xmldom.Parse(b.docs[j].Data)
	}
	if b.trees[j] == nil {
		return nil, b.err
	}
	return b.trees[j], nil
}

// ParseDocs is the parsing half of a Store's LoadDocs: it parses every
// document of db and calls store with it and its tree, in database order,
// on the caller's goroutine — so what store writes, and in which order,
// is what a sequential parse-then-write loop writes. A document that does
// not parse fails the load where it stands, after every document before
// it was stored, with "<engine>: <document name>: <syntax error>"; ctx is
// checked before each document.
//
// Parsing runs ahead of store: db is cut into batches of about parseBatch
// bytes, which GOMAXPROCS−1 workers parse up to two batches per worker
// ahead of the one being stored. A batch no worker has taken by the time
// store gets to it is the caller's: it parses each document just before
// storing it, while the tree is still in cache, as a sequential loader
// does — which is all it does with fewer than two batches, or one core.
// While it waits for a batch a worker is still parsing, the caller parses
// later batches no worker has taken yet. The workers have exited when
// ParseDocs returns, so a load leaves no goroutine behind.
func ParseDocs(ctx context.Context, engine string, db *core.Database, store func(d *core.Doc, doc *xmldom.Node) error) error {
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
		own := claim(bs, i, ahead)
		for j := range b.docs {
			if err := ctx.Err(); err != nil {
				return err
			}
			doc, err := b.tree(j, own)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", engine, b.docs[j].Name, err)
			}
			if err := store(&b.docs[j], doc); err != nil {
				return err
			}
		}
		b.trees = nil // stored: the trees can go
	}
	return nil
}
