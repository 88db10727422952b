// Fault injection: a deterministic crash point for the simulated disk. A
// FaultPolicy makes the pager fail one way — a crash that halts all
// further I/O once a budget of disk operations is spent — so the engines
// and the benchmark harness can be exercised against failure, not just
// the happy path. The budget is counted on the pager's own clock
// (OpCount), so the same budget over the same operation sequence crashes
// at the same operation: every chaos run is reproducible.
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
)

// ErrCrashed is returned by every disk operation after a crash point has
// fired: the simulated machine is down for good.
var ErrCrashed = errors.New("pager: simulated crash: I/O halted")

// IsCrash reports whether err means the pager has crashed: no further
// I/O succeeds on it.
func IsCrash(err error) bool { return errors.Is(err, ErrCrashed) }

// FaultPolicy configures deterministic fault injection. Setting any
// policy at all starts the disk-operation clock (OpCount).
type FaultPolicy struct {
	// CrashAfterOps halts all further I/O once this many disk operations
	// (reads and write-backs) have completed; 0 disables.
	CrashAfterOps int64
}

// faultState is the live fault-injection machinery hanging off a Pager.
// It is guarded by the pager's mutex.
type faultState struct {
	policy FaultPolicy
	ops    int64
}

// SetFaultPolicy installs or updates deterministic fault injection.
// Updating the policy on a pager that already has one keeps the
// disk-operation clock — so a crash point can be armed relative to
// OpCount — and the crash, if one fired.
func (p *Pager) SetFaultPolicy(fp FaultPolicy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fault == nil {
		p.fault = &faultState{}
	}
	p.fault.policy = fp
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

// diskOp accounts one disk operation against the fault policy: it fires
// the crash point when the op budget is spent, taking the pager down.
// Callers must hold p.mu exclusively and have found the pager up. With no
// policy it is a no-op.
func (p *Pager) diskOp() error {
	fs := p.fault
	if fs == nil {
		return nil
	}
	if fs.policy.CrashAfterOps > 0 && fs.ops >= fs.policy.CrashAfterOps {
		p.down = ErrCrashed
		return fmt.Errorf("%w (crash point at %d disk ops)", ErrCrashed, fs.ops)
	}
	fs.ops++
	return nil
}
