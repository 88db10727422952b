// Fault injection: a seeded, deterministic fault model for the simulated
// disk. A FaultPolicy makes the pager misbehave in two ways — transient
// read errors, retried inside Read, and a crash that halts all further
// I/O — so the engines and the benchmark harness can be exercised against
// failure, not just the happy path. Faults are drawn from a splitmix64
// stream seeded by the policy, so the same seed over the same operation
// sequence produces the same fault sequence: every chaos run is
// reproducible.
//
// There is no recovery here. The simulated disk is process memory, so a
// crashed pager is a machine that is down, and it stays down: what comes
// back is a new process — a fresh engine that loads the database and
// replays the server's journal file (server.Reopen), which is the restart
// the chaos grids crash into.
package pager

import (
	"errors"
	"fmt"
	"time"
)

// ErrCrashed is returned by every disk operation after a crash point has
// fired: the simulated machine is down for good.
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

// IsCrash reports whether err means the pager has crashed: no further
// I/O succeeds on it.
func IsCrash(err error) bool { return errors.Is(err, ErrCrashed) }

// IsTransient reports whether err is a retryable soft fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransientRead) }

// MaxReadAttempts bounds the internal retry loop for transient read
// faults: the first attempt plus up to three retries.
const MaxReadAttempts = 4

// FaultPolicy configures deterministic fault injection. The zero rate /
// zero crash point fields individually disable their fault kind; setting
// any policy at all starts the disk-operation clock (OpCount).
type FaultPolicy struct {
	// Seed drives the fault stream. The same seed over the same operation
	// sequence yields the same faults. 0 is a valid seed.
	Seed uint64
	// ReadErrorRate is the probability, per disk read, of a transient
	// read fault (retried internally with backoff).
	ReadErrorRate float64
	// CrashAfterOps halts all further I/O once this many disk operations
	// (reads and write-backs) have completed; 0 disables.
	CrashAfterOps int64
}

// faultState is the live fault-injection machinery hanging off a Pager.
// It is guarded by the pager's mutex.
type faultState struct {
	policy  FaultPolicy
	rng     uint64
	ops     int64
	crashed bool
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

// SetFaultPolicy installs or updates deterministic fault injection.
// Updating the policy on a pager that already has one keeps the
// disk-operation clock — so a crash point can be armed relative to
// OpCount — and the crash, if one fired, and reseeds the fault stream
// from the new seed.
func (p *Pager) SetFaultPolicy(fp FaultPolicy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fault == nil {
		p.fault = &faultState{}
	}
	p.fault.policy = fp
	// Mix the seed so Seed 0 does not start the stream at state 0.
	p.fault.rng = fp.Seed ^ 0xD1B54A32D192ED03
}

// OpCount returns the number of disk operations (reads and write-backs)
// performed since a policy was first set. It is the clock that
// CrashAfterOps is measured on.
func (p *Pager) OpCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fault == nil {
		return 0
	}
	return p.fault.ops
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
