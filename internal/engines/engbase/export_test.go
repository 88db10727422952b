package engbase

// JournalRecords returns the number of committed records in the update
// journal, for the contract test's "a refused update appends nothing".
func (b *Base[V]) JournalRecords() (int, error) {
	recs, err := b.journal.Committed()
	return len(recs), err
}
