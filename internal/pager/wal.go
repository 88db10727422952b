// Write-ahead log and crash recovery for the simulated disk.
//
// With a FaultPolicy installed, every in-place page write is preceded by
// a checksummed full-page image appended to the log, and every file
// truncation by a truncate marker. Recover replays the log in order —
// applying complete, checksum-valid records and discarding a torn tail —
// which restores every page to its last durable image: torn in-place
// writes are repaired from their (complete) log record, and a crash that
// tore the log record itself never performed the in-place write, so the
// page legitimately keeps its previous durable image.
//
// Record layout (big-endian):
//
//	[4] magic "WAL1"
//	[1] kind: 0 = page image, 1 = file truncate
//	[4] file id
//	[4] page number (0 for truncate)
//	[4] data length  (0 for truncate, PageSize for page images)
//	[n] data
//	[8] FNV-64a over kind, file id, page number and data
package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

const walMagic = 0x57414C31 // "WAL1"

const (
	walKindPage     = 0
	walKindTruncate = 1
)

const walHeaderSize = 4 + 1 + 4 + 4 + 4 // magic, kind, fid, page, length

func walChecksum(kind byte, fid FileID, no uint32, data []byte) uint64 {
	h := fnv.New64a()
	var hdr [9]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:5], uint32(fid))
	binary.BigEndian.PutUint32(hdr[5:9], no)
	h.Write(hdr[:])
	h.Write(data)
	return h.Sum64()
}

func encodeWALRecord(kind byte, key pageKey, data []byte) []byte {
	buf := make([]byte, 0, walHeaderSize+len(data)+8)
	buf = binary.BigEndian.AppendUint32(buf, walMagic)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(key.fid))
	buf = binary.BigEndian.AppendUint32(buf, key.no)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, data...)
	return binary.BigEndian.AppendUint64(buf, walChecksum(kind, key.fid, key.no, data))
}

// decodeWALRecord parses the record at the head of buf. ok is false for a
// torn or corrupt record (recovery stops there and discards the tail).
func decodeWALRecord(buf []byte) (kind byte, key pageKey, data []byte, size int, ok bool) {
	if len(buf) < walHeaderSize {
		return 0, pageKey{}, nil, 0, false
	}
	if binary.BigEndian.Uint32(buf[0:4]) != walMagic {
		return 0, pageKey{}, nil, 0, false
	}
	kind = buf[4]
	key.fid = FileID(binary.BigEndian.Uint32(buf[5:9]))
	key.no = binary.BigEndian.Uint32(buf[9:13])
	n := int(binary.BigEndian.Uint32(buf[13:17]))
	size = walHeaderSize + n + 8
	if n > PageSize || len(buf) < size {
		return 0, pageKey{}, nil, 0, false
	}
	data = buf[walHeaderSize : walHeaderSize+n]
	if binary.BigEndian.Uint64(buf[size-8:size]) != walChecksum(kind, key.fid, key.no, data) {
		return 0, pageKey{}, nil, 0, false
	}
	return kind, key, data, size, true
}

// walAppend logs one record ahead of the disk action it protects. A crash
// firing on the append itself leaves a deterministic partial prefix in
// the log — the torn tail Recover discards. Callers must hold p.mu.
func (p *Pager) walAppend(kind byte, key pageKey, data []byte) error {
	fs := p.fault
	if fs == nil {
		return nil
	}
	rec := encodeWALRecord(kind, key, data)
	if err := p.diskOp(opWrite); err != nil {
		if errors.Is(err, ErrCrashed) && len(rec) > 0 {
			fs.wal = append(fs.wal, rec[:int(fs.randU64()%uint64(len(rec)))]...)
		}
		return err
	}
	p.cWALAppend.Inc()
	fs.wal = append(fs.wal, rec...)
	switch kind {
	case walKindPage:
		fs.shadow[key] = append([]byte(nil), data...)
	case walKindTruncate:
		for k := range fs.shadow {
			if k.fid == key.fid {
				delete(fs.shadow, k)
			}
		}
	}
	return nil
}

// Recover restores the last durable state after a simulated crash: the
// buffer pool is dropped without write-back (in-memory dirty frames died
// with the process), every complete WAL record is replayed in order into
// the files, and a torn tail — a partial or checksum-corrupt final
// record — is discarded. The crash flag and the disk-operation clock are
// cleared so I/O can resume under the still-installed policy; call
// SetFaultPolicy afterwards to change it (e.g. to disable the crash
// point before re-loading). Recover on a non-crashed pager acts as a
// checkpoint: torn page writes are repaired from the log. It returns the
// number of records replayed.
func (p *Pager) Recover() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.fault
	if fs == nil {
		return 0, fmt.Errorf("pager: Recover without a fault policy (WAL disabled)")
	}
	// Drop the pool: nothing in volatile memory survived the crash.
	for i := range p.frames {
		p.frames[i] = frame{}
	}
	p.table = make(map[pageKey]int, p.capacity)
	p.hand = 0
	// Redo pass over the log.
	replayed := 0
	buf := fs.wal
	for len(buf) > 0 {
		kind, key, data, size, ok := decodeWALRecord(buf)
		if !ok {
			break // torn tail: everything from here on was not durable
		}
		f := p.files[key.fid]
		if f != nil {
			switch kind {
			case walKindPage:
				for uint32(len(f.pages)) <= key.no {
					f.pages = append(f.pages, nil)
				}
				pg := make([]byte, PageSize)
				copy(pg, data)
				f.pages[key.no] = pg
			case walKindTruncate:
				f.pages = nil
			}
		}
		replayed++
		buf = buf[size:]
	}
	fs.wal = fs.wal[:0] // checkpoint: all images are now in place
	fs.crashed = false
	fs.ops = 0
	// The in-memory MVCC version chains died with the machine; the update
	// journal replay re-brackets each committed record, rebuilding a
	// consistent latest epoch from scratch.
	p.mvccReset()
	return replayed, nil
}

// CheckDurable verifies the recovery invariant after Recover (or after a
// clean SyncAll with no faults in flight): every non-empty page on the
// simulated disk equals the last durable image the WAL recorded for it,
// and every recorded image is present. It returns a descriptive error on
// the first violation.
func (p *Pager) CheckDurable() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.fault
	if fs == nil {
		return fmt.Errorf("pager: CheckDurable without a fault policy")
	}
	for fid, f := range p.files {
		for no, pg := range f.pages {
			img, ok := fs.shadow[pageKey{fid, uint32(no)}]
			if pg == nil && !ok {
				continue // never durably written: legitimately empty
			}
			if pg == nil || !ok || !bytes.Equal(pg, img) {
				return fmt.Errorf("pager: file %d (%s) page %d diverges from its durable image (disk %d bytes, image %d bytes)",
					fid, f.name, no, len(pg), len(img))
			}
		}
	}
	for key := range fs.shadow {
		f := p.files[key.fid]
		if f == nil || key.no >= uint32(len(f.pages)) {
			return fmt.Errorf("pager: durable image for file %d page %d has no backing page", key.fid, key.no)
		}
	}
	return nil
}
