package workload

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"xbench/internal/core"
	"xbench/internal/updatelog"
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

// Updater is one client's side of the update workload. It keeps the
// documents the client inserted and has not deleted, oldest first, so
// every op has its target without a setup call:
//
//	U1 inserts the client's next sequence number (client, client+clients, ...)
//	U2 replaces the newest live document with its next revision
//	U3 deletes the oldest live document
//
// With nothing live, U2 and U3 fall back to U1. Clients of one run draw
// disjoint sequence numbers; Finish deletes what is still live, so the
// next run reuses the names. Give each client its own Updater.
type Updater struct {
	class core.Class
	next  int   // next sequence number to insert
	step  int   // stride between this client's sequence numbers
	live  []int // sequence numbers inserted and not deleted, oldest first
	// final is what each acknowledged update left behind: the revision
	// the document must answer with, or -1 when it must be gone.
	final map[int]int
}

// NewUpdater returns the Updater of client (0-based) among clients
// concurrent ones, on a multi-document class.
func NewUpdater(class core.Class, client, clients int) (*Updater, error) {
	if class.SingleDocument() {
		return nil, fmt.Errorf("workload: update workload is defined for multi-document classes, not %s", class)
	}
	return &Updater{class: class, next: client, step: max(clients, 1), final: map[int]int{}}, nil
}

// Apply issues op against e and times the engine call alone; did is the
// op issued, U1 when op has no live document to act on. A failed op
// changes nothing the Updater checks, but a U1 still uses up its
// sequence number: an insert that failed after the engine applied it
// must not be retried under the same name.
func (u *Updater) Apply(ctx context.Context, e core.Engine, op UpdateOp) (did UpdateOp, d time.Duration, err error) {
	if len(u.live) == 0 {
		op = U1
	}
	var rec updatelog.Record
	var seq, rev int // the target and the revision the update leaves it at
	switch op {
	case U1:
		seq = u.next
		u.next += u.step
		rec.Kind = updatelog.KindInsert
		rec.Name, rec.Data = UpdateDoc(u.class, seq, 0)
	case U2:
		seq = u.live[len(u.live)-1]
		rev = u.final[seq] + 1
		rec.Kind = updatelog.KindReplace
		rec.Name, rec.Data = UpdateDoc(u.class, seq, rev)
	case U3:
		seq, rev = u.live[0], -1
		rec.Kind = updatelog.KindDelete
		_, rec.Name, _ = core.DocOf(UpdateTargetID(u.class, seq))
	default:
		return op, 0, fmt.Errorf("workload: unknown update op %d", int(op))
	}
	t0 := time.Now()
	err = updatelog.Apply(ctx, e, rec, nil)
	d = time.Since(t0)
	if err != nil {
		return op, d, err
	}
	u.final[seq] = rev
	switch op {
	case U1:
		u.live = append(u.live, seq)
	case U3:
		u.live = u.live[1:]
	}
	return op, d, nil
}

// Check asks e, untimed, for every document an acknowledged update
// touched: one the client deleted must answer its Q1 with nothing, any
// other with something, and on DC/MD with the order total of its last
// revision (DC/MD Q1 returns the total, which UpdateDoc derives from the
// revision). It reports the first document that does not.
func (u *Updater) Check(ctx context.Context, e core.Engine) error {
	for seq, rev := range u.final {
		id := UpdateTargetID(u.class, seq)
		res, err := e.Execute(ctx, core.Q1, core.Params{"X": id})
		switch {
		case err != nil:
			return fmt.Errorf("workload: check %s: %w", id, err)
		case rev < 0 && len(res.Items) != 0:
			return fmt.Errorf("workload: %s deleted, still answers %d items", id, len(res.Items))
		case rev >= 0 && len(res.Items) == 0:
			return fmt.Errorf("workload: %s revision %d not visible", id, rev)
		case rev >= 0 && u.class == core.DCMD && (len(res.Items) != 1 || !strings.Contains(res.Items[0], orderTotal(rev))):
			return fmt.Errorf("workload: %s revision %d, want one total %s, got %v", id, rev, orderTotal(rev), res.Items)
		}
	}
	return nil
}

// Finish ends a run, untimed: Check, then delete the documents still
// live, so e holds the corpus it held before the Updater's first op. The
// deletions run even when the check fails; the error reports both.
func (u *Updater) Finish(ctx context.Context, e core.Engine) error {
	err := u.Check(ctx, e)
	for len(u.live) > 0 {
		if _, _, derr := u.Apply(ctx, e, U3); derr != nil {
			return errors.Join(err, fmt.Errorf("workload: delete after the run: %w", derr))
		}
	}
	return err
}

// UpdateTargetID returns the root id of the update workload's target
// document for seq — the X parameter of the Q1 that Check asks it with.
func UpdateTargetID(class core.Class, seq int) string {
	if class == core.DCMD {
		return "OU" + strconv.Itoa(seq)
	}
	return "aU" + strconv.Itoa(seq)
}

// orderTotal is the total of the DC/MD update document's revision rev.
func orderTotal(rev int) string { return strconv.Itoa(10+rev) + ".80" }

// UpdateDoc builds the deterministic, schema-conforming document the
// update workload uses for (class, seq), named by core.DocOf after its
// root's id. rev varies the content a Q1 observes — the order total for
// DC/MD, the article title for TC/MD — so U2's replacement is
// distinguishable from the document it replaced (rev 0 is the inserted
// document, each U2 the next revision).
func UpdateDoc(class core.Class, seq, rev int) (string, []byte) {
	id := UpdateTargetID(class, seq)
	e := xmldom.NewEncoder()
	if class == core.DCMD {
		total := orderTotal(rev)
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
	} else {
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
	}
	_, name, _ := core.DocOf(id)
	b, _ := e.Bytes()
	return name, b
}
