package engbase

import (
	"xbench/internal/core"
	"xbench/internal/plan"
	"xbench/internal/queries"
)

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
	fresh, err = plan.Plan(queries.Lookup(pub.view.Class(), q), pub.view.Stats())
	return served, fresh, err
}
