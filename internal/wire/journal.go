// OpJournal payloads: how read replicas ship the primary's durable update
// journal over the wire. A replica polls with the position just past the
// last record it applied — the journal offset and that record's checksum
// — and the primary answers with the committed journal bytes from there,
// exactly as its file holds them: whole records under a byte cap, which
// the replica decodes and checks with the journal's own codec
// (updatelog.Decode). The record layout is the journal's alone; this
// package carries the window as opaque bytes.
package wire

// JournalPullRequest names the place in the primary's journal a replica
// reads from: the end of the last record it applied.
type JournalPullRequest struct {
	// Since is the journal byte offset to read from: 0, or the end of a
	// committed record.
	Since uint64
	// Prev is the checksum the record ending at Since ends with
	// (updatelog.Record.Sum; 0 at offset 0). The primary refuses a
	// position that follows another record: the replica was following a
	// different journal.
	Prev uint64
}

// EncodeJournalPullRequest serializes an OpJournal request payload.
func EncodeJournalPullRequest(r JournalPullRequest) []byte {
	var e enc
	e.uvarint(r.Since)
	e.uvarint(r.Prev)
	return e.b
}

// DecodeJournalPullRequest parses an OpJournal request payload.
func DecodeJournalPullRequest(b []byte) (JournalPullRequest, error) {
	d := dec{b}
	var r JournalPullRequest
	var err error
	if r.Since, err = d.uvarint(); err != nil {
		return r, err
	}
	if r.Prev, err = d.uvarint(); err != nil {
		return r, err
	}
	return r, d.end()
}
