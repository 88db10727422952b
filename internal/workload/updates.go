package workload

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/xmldom"
)

// The paper lists update workloads as planned future work for XBench
// ("(2) update workloads"). This file defines a small document-granularity
// update workload — the unit a native XML store actually manages — for the
// multi-document classes, runnable against any core.Engine:
//
//	U1: insert a new document
//	U2: replace an existing document
//	U3: delete a document
//
// Each operation is followed by a verification query (reported
// separately, see UpdateMeasurement) so the measurement covers a durable,
// observable update.

// UpdateOp identifies one update workload operation.
type UpdateOp int

const (
	// U1 inserts a fresh document.
	U1 UpdateOp = iota + 1
	// U2 replaces an existing document with new content.
	U2
	// U3 deletes a document.
	U3
)

func (u UpdateOp) String() string { return fmt.Sprintf("U%d", int(u)) }

// UpdateOps lists the update operations in workload order.
var UpdateOps = []UpdateOp{U1, U2, U3}

// UpdateMeasurement reports one update execution.
type UpdateMeasurement struct {
	Op UpdateOp
	// Elapsed covers only the update operation itself (setup, such as
	// pre-creating the document U2 replaces or U3 deletes, is untimed).
	Elapsed time.Duration
	// VerifyElapsed covers the follow-up verification query, reported
	// separately so update latency is not inflated by a read.
	VerifyElapsed time.Duration
	// Breakdown attributes the update's metrics activity (pager I/O, MVCC
	// captures, phases) when the engine exposes a registry; zero otherwise.
	// It covers the timed update only, not setup or verification.
	Breakdown metrics.Breakdown
	Err       error
}

// RunUpdateOp executes one update operation against an engine loaded with
// a multi-document class database, using deterministic synthetic content,
// and verifies the effect with a follow-up Q1. seq distinguishes repeated
// runs (documents are named after it); use a fresh seq per op — U1
// inserts strictly and fails on an existing name.
//
// U2 and U3 first ensure their target document exists (an untimed upsert
// of revision 0); the timed operation then replaces it with revision 1
// content or deletes it, so Elapsed measures a true replace/delete.
func RunUpdateOp(ctx context.Context, e core.Engine, class core.Class, op UpdateOp, seq int) UpdateMeasurement {
	m := UpdateMeasurement{Op: op}
	if class.SingleDocument() {
		m.Err = fmt.Errorf("workload: update workload is defined for multi-document classes, not %s", class)
		return m
	}
	name, doc := UpdateDoc(class, seq, 0)
	if op == U2 || op == U3 {
		if err := e.ReplaceDocument(ctx, name, doc); err != nil { // untimed setup
			m.Err = err
			return m
		}
	}

	var before metrics.Snapshot
	var reg *metrics.Registry
	if mp, ok := e.(MetricsProvider); ok {
		reg = mp.Metrics()
		before = reg.Snapshot()
	}
	start := time.Now()
	switch op {
	case U1:
		m.Err = e.InsertDocument(ctx, name, doc)
	case U2:
		_, doc1 := UpdateDoc(class, seq, 1)
		m.Err = e.ReplaceDocument(ctx, name, doc1)
	case U3:
		m.Err = e.DeleteDocument(ctx, name)
	default:
		m.Err = fmt.Errorf("workload: unknown update op %d", int(op))
	}
	m.Elapsed = time.Since(start)
	if reg != nil {
		m.Breakdown = reg.Snapshot().Delta(before)
	}
	if m.Err != nil {
		return m
	}

	// Verify observability.
	id := UpdateTargetID(class, seq)
	vStart := time.Now()
	res, err := e.Execute(ctx, core.Q1, core.Params{"X": id})
	m.VerifyElapsed = time.Since(vStart)
	if err != nil {
		m.Err = err
		return m
	}
	switch op {
	case U1, U2:
		if len(res.Items) == 0 {
			m.Err = fmt.Errorf("workload: %s not visible after %s", id, op)
		}
	case U3:
		if len(res.Items) != 0 {
			m.Err = fmt.Errorf("workload: %s still visible after delete", id)
		}
	}
	return m
}

// UpdateTargetID returns the root id of the update workload's target
// document for seq — the X parameter of the verification query.
func UpdateTargetID(class core.Class, seq int) string {
	if class == core.DCMD {
		return "OU" + strconv.Itoa(seq)
	}
	return "aU" + strconv.Itoa(seq)
}

// UpdateDoc builds the deterministic, schema-conforming document the
// update workload uses for (class, seq). rev varies the content the
// verification query observes — the order total for DC/MD, the article
// title for TC/MD — so U2's replacement is distinguishable from the
// document it replaced (rev 0 is the original, rev 1 the replacement).
func UpdateDoc(class core.Class, seq, rev int) (string, []byte) {
	id := UpdateTargetID(class, seq)
	e := xmldom.NewEncoder()
	if class == core.DCMD {
		total := strconv.Itoa(10+rev) + ".80"
		e.Begin("order", "id", id)
		e.Leaf("customer_id", "C1")
		e.Leaf("order_date", "2002-06-15")
		e.Leaf("sub_total", strconv.Itoa(10+rev)+".00")
		e.Leaf("tax", "0.80")
		e.Leaf("total", total)
		e.Leaf("ship_type", "AIR")
		e.Leaf("ship_date", "2002-06-17")
		e.Leaf("ship_addr_id", "ADDR1")
		e.Leaf("order_status", "PENDING")
		e.Begin("cc_xacts")
		e.Leaf("cc_type", "VISA")
		e.Leaf("cc_number", "4000000000000000")
		e.Leaf("cc_name", "Update Workload")
		e.Leaf("cc_expiry", "2003-06-15")
		e.Leaf("cc_auth_id", "AUTH000001")
		e.Leaf("total_amount", total)
		e.End()
		e.Begin("order_lines")
		e.Begin("order_line")
		e.Leaf("item_id", "I1")
		e.Leaf("qty", strconv.Itoa(1+seq%5))
		e.Leaf("discount", "0")
		e.End()
		e.End()
		e.End()
		b, _ := e.Bytes()
		return "order-update-" + strconv.Itoa(seq) + ".xml", b
	}
	title := "Update Workload Article " + strconv.Itoa(seq)
	if rev > 0 {
		title += " (rev " + strconv.Itoa(rev) + ")"
	}
	e.Begin("article", "id", id)
	e.Begin("prolog")
	e.Leaf("title", title)
	e.Begin("authors")
	e.Begin("author")
	e.Leaf("name", "Update Author")
	e.End()
	e.End()
	e.End()
	e.Begin("body")
	e.Begin("sec", "id", id+"-s1")
	e.Leaf("heading", "Introduction")
	e.Leaf("p", "Inserted by the update workload.")
	e.End()
	e.End()
	e.End()
	b, _ := e.Bytes()
	return "article-update-" + strconv.Itoa(seq) + ".xml", b
}
