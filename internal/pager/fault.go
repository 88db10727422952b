// Fault injection: a seeded, deterministic fault model for the simulated
// disk. A FaultPolicy makes the pager misbehave the way 2004-era hardware
// (and today's) actually does — transient read errors, torn page writes,
// and crashes that halt all further I/O — so the engines and the
// benchmark harness can be exercised against failure and recovery, not
// just the happy path. Faults are drawn from a splitmix64 stream seeded
// by the policy, so the same seed over the same operation sequence
// produces the same fault sequence: every chaos run is reproducible.
//
// Enabling a policy also enables the write-ahead log (wal.go): every
// in-place page write is preceded by a checksummed full-page log record,
// which is what makes Recover able to restore the last durable state
// after a crash or a torn write.
package pager

import (
	"errors"
	"fmt"
	"time"
)

// ErrCrashed is returned by every disk operation after a crash point has
// fired: the simulated machine is down until Recover is called.
var ErrCrashed = errors.New("pager: simulated crash: I/O halted")

// ErrTransientRead marks a soft, retryable read fault (a bad sector read
// that succeeds on retry). Pager.Read retries these internally; callers
// only see the error if a policy's rate is so high that MaxReadAttempts
// consecutive attempts all fault.
var ErrTransientRead = errors.New("pager: transient read fault")

// ErrReadFault is the fatal form of a read fault: MaxReadAttempts
// consecutive transient faults on the same page. It is deliberately not
// a transient error — engines must treat it as fatal.
var ErrReadFault = errors.New("pager: read failed after retries")

// IsCrash reports whether err means the pager has crashed and needs
// Recover before any further I/O.
func IsCrash(err error) bool { return errors.Is(err, ErrCrashed) }

// IsTransient reports whether err is a retryable soft fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransientRead) }

// MaxReadAttempts bounds the internal retry loop for transient read
// faults: the first attempt plus up to three retries.
const MaxReadAttempts = 4

// FaultPolicy configures deterministic fault injection. The zero rate /
// zero crash point fields individually disable their fault kind; setting
// any policy at all enables the write-ahead log and durable-image
// bookkeeping.
type FaultPolicy struct {
	// Seed drives the fault stream. The same seed over the same operation
	// sequence yields the same faults. 0 is a valid seed.
	Seed uint64
	// ReadErrorRate is the probability, per disk read, of a transient
	// read fault (retried internally with backoff).
	ReadErrorRate float64
	// TornWriteRate is the probability, per in-place page write, that
	// only a prefix of the page reaches the platter. The fault is silent
	// — like real torn writes, it is only detectable at recovery time,
	// when the WAL image repairs the page.
	TornWriteRate float64
	// CrashAfterOps halts all further I/O once this many disk operations
	// (reads, write-backs and WAL appends) have completed; 0 disables.
	// A crash landing on a WAL append leaves a torn record tail, which
	// Recover discards.
	CrashAfterOps int64
}

// faultState is the live fault-injection machinery hanging off a Pager.
// It is guarded by the pager's mutex.
type faultState struct {
	policy  FaultPolicy
	rng     uint64
	ops     int64
	crashed bool
	wal     []byte             // the simulated log file
	shadow  map[pageKey][]byte // last durable image per page
}

// splitmix64: tiny, fast, and adequate for fault scheduling.
func (fs *faultState) randU64() uint64 {
	fs.rng += 0x9E3779B97F4A7C15
	z := fs.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (fs *faultState) rand01() float64 {
	return float64(fs.randU64()>>11) / (1 << 53)
}

// SetFaultPolicy installs or updates deterministic fault injection,
// enabling the write-ahead log. Updating the policy on a pager that
// already has one keeps the log and the durable-image bookkeeping (so a
// post-crash policy change — e.g. disabling the crash point before
// re-loading — does not forget what is on disk) and reseeds the fault
// stream from the new seed. Fault injection also turns on defensive read
// copies: WAL checksums rely on buffer frames not being mutated through
// slices returned by Read.
func (p *Pager) SetFaultPolicy(fp FaultPolicy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fault == nil {
		p.fault = &faultState{shadow: map[pageKey][]byte{}}
	}
	p.fault.policy = fp
	// Mix the seed so Seed 0 does not start the stream at state 0.
	p.fault.rng = fp.Seed ^ 0xD1B54A32D192ED03
	p.copyReads = true
}

// FaultPolicyInfo returns the active policy and whether fault injection
// is enabled.
func (p *Pager) FaultPolicyInfo() (FaultPolicy, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.fault == nil {
		return FaultPolicy{}, false
	}
	return p.fault.policy, true
}

// Crashed reports whether a crash point has fired and I/O is halted.
func (p *Pager) Crashed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.fault != nil && p.fault.crashed
}

// OpCount returns the number of disk operations (reads, write-backs and
// WAL appends) performed since the policy was set or the last Recover.
// It is the clock that CrashAfterOps is measured on.
func (p *Pager) OpCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fault == nil {
		return 0
	}
	return p.fault.ops
}

// SetCopyReads toggles defensive copying in Read independently of fault
// injection: with it on, every live Read returns a fresh copy of the page,
// so mutating a returned slice cannot corrupt the pool or the disk image.
// It is the only read that copies — a pool miss installs the disk image
// itself (see the package comment). Fault injection forces it on.
func (p *Pager) SetCopyReads(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.copyReads = on
}

type opKind int

const (
	opRead opKind = iota
	opWrite
)

// diskOp accounts one disk operation against the fault policy: it fails
// fast when crashed, fires the crash point when the op budget is spent,
// and injects transient faults on reads. Callers must hold p.mu. With no
// policy it is a no-op.
func (p *Pager) diskOp(kind opKind) error {
	fs := p.fault
	if fs == nil {
		return nil
	}
	if fs.crashed {
		return ErrCrashed
	}
	if fs.policy.CrashAfterOps > 0 && fs.ops >= fs.policy.CrashAfterOps {
		fs.crashed = true
		return fmt.Errorf("%w (crash point at %d disk ops)", ErrCrashed, fs.ops)
	}
	fs.ops++
	if kind == opRead && fs.policy.ReadErrorRate > 0 && fs.rand01() < fs.policy.ReadErrorRate {
		p.cReadFault.Inc()
		return fmt.Errorf("%w (op %d)", ErrTransientRead, fs.ops)
	}
	return nil
}

// tornWrite decides whether the current in-place write tears, and if so
// how many bytes reach the disk. Callers must hold p.mu.
func (p *Pager) tornWrite() (int, bool) {
	fs := p.fault
	if fs == nil || fs.policy.TornWriteRate <= 0 {
		return 0, false
	}
	if fs.rand01() >= fs.policy.TornWriteRate {
		return 0, false
	}
	// Tear somewhere strictly inside the page (a zero-length tear would
	// be an untorn old page; a full-length one an untorn new page).
	n := 1 + int(fs.randU64()%uint64(PageSize-1))
	return n, true
}

// retryBackoff sleeps briefly before a read retry (the simulated device
// settle time) and counts the retry. Exponential: attempt 1 waits one
// unit, attempt 2 two, attempt 3 four.
func (p *Pager) retryBackoff(attempt int) {
	p.mu.RLock()
	c := p.cReadRetry
	p.mu.RUnlock()
	c.Inc()
	time.Sleep(time.Duration(1<<(attempt-1)) * 20 * time.Microsecond)
}
