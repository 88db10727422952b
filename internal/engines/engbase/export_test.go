package engbase

import (
	"xbench/internal/core"
	"xbench/internal/plan"
	"xbench/internal/queries"
)

// JournalRecords returns the number of committed records in the update
// journal, for the contract test's "a refused update appends nothing".
func (b *Base[V]) JournalRecords() (int, error) {
	recs, err := b.journal.Committed()
	return len(recs), err
}

// Plans returns q's plan over the committed view twice: served, as
// Execute and Explain get it (from q's cell once it is there), and fresh,
// as plan.Plan builds it from the store's statistics of that view.
func (b *Base[V]) Plans(q core.QueryID) (served, fresh *plan.Physical, err error) {
	snap, pub, err := b.pinned("Plans")
	defer snap.Release()
	if err != nil {
		return nil, nil, err
	}
	c, err := pub.plan(q)
	if err != nil {
		return nil, nil, err
	}
	served = c.ph
	st := pub.view.Stats()
	st.Feedback = &b.fb
	fresh, err = plan.Plan(queries.Lookup(pub.view.Class(), q), st)
	return served, fresh, err
}
