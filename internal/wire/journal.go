// OpJournal payloads: the codecs read replicas use to ship the primary's
// durable update journal over the wire. A replica polls with the index of
// the first record it has not applied; the primary answers with a bounded
// window of committed records starting there plus the index to poll from
// next. Records carry their idempotency keys, so a replica promoted to
// answering retries (or a router inspecting lag) sees the same identity
// the primary journaled.
package wire

import (
	"fmt"

	"xbench/internal/updatelog"
)

// MaxJournalBatch bounds how many records one OpJournal response carries.
// A replica far behind catches up in windows instead of one giant frame,
// keeping every response under the frame payload cap no matter how long
// the journal has grown.
const MaxJournalBatch = 256

// JournalPullRequest asks for committed journal records [Since, Since+n).
type JournalPullRequest struct {
	// Since is the journal index (0-based record position) to read from.
	Since uint64
	// Max bounds the records returned; 0 or anything above MaxJournalBatch
	// selects MaxJournalBatch.
	Max uint64
}

// EncodeJournalPullRequest serializes an OpJournal request payload.
func EncodeJournalPullRequest(r JournalPullRequest) []byte {
	var e enc
	e.uvarint(r.Since)
	e.uvarint(r.Max)
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
	if r.Max, err = d.uvarint(); err != nil {
		return r, err
	}
	return r, nil
}

// JournalPullResponse carries one shipped window of the journal.
type JournalPullResponse struct {
	// Next is the index to poll from after applying Records: the request's
	// Since plus len(Records). Next == Since with no records means the
	// replica has caught up to the primary's committed tail.
	Next uint64
	// Records are the committed records at [Since, Next), in commit order.
	Records []updatelog.Record
}

// EncodeJournalPullResponse serializes an OpJournal success payload.
func EncodeJournalPullResponse(r JournalPullResponse) []byte {
	var e enc
	e.uvarint(r.Next)
	e.uvarint(uint64(len(r.Records)))
	for _, rec := range r.Records {
		e.byte(byte(rec.Kind))
		e.string(rec.Name)
		e.bytes(rec.Data)
		e.uvarint(rec.Client)
		e.uvarint(rec.Seq)
	}
	return e.b
}

// DecodeJournalPullResponse parses an OpJournal success payload. A record
// whose kind is not U1-U3 makes the payload malformed.
func DecodeJournalPullResponse(b []byte) (JournalPullResponse, error) {
	d := dec{b}
	var r JournalPullResponse
	var err error
	if r.Next, err = d.uvarint(); err != nil {
		return r, err
	}
	n, err := d.uvarint()
	if err != nil {
		return r, err
	}
	r.Records = make([]updatelog.Record, 0, min(n, MaxJournalBatch))
	for i := uint64(0); i < n; i++ {
		var rec updatelog.Record
		k, err := d.byte()
		if err != nil {
			return r, err
		}
		rec.Kind = updatelog.Kind(k)
		if rec.Kind < updatelog.KindInsert || rec.Kind > updatelog.KindDelete {
			// A replica would count it applied and move past it.
			return r, fmt.Errorf("wire: journal record %d has unknown kind %d", i, k)
		}
		if rec.Name, err = d.string(); err != nil {
			return r, err
		}
		if rec.Data, err = d.bytes(); err != nil {
			return r, err
		}
		if rec.Client, err = d.uvarint(); err != nil {
			return r, err
		}
		if rec.Seq, err = d.uvarint(); err != nil {
			return r, err
		}
		r.Records = append(r.Records, rec)
	}
	return r, nil
}
