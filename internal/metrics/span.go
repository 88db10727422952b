package metrics

import "time"

// Canonical phase names used across the engines. An engine records only
// the phases its architecture has: a shredded engine has no parse phase
// at query time, a sequential scan has no index probe.
const (
	PhaseParse       = "parse"       // XQuery/XML parsing
	PhasePlan        = "plan"        // plan lookup / translation
	PhaseIndexProbe  = "index-probe" // B+tree probes (value or key indexes)
	PhaseScan        = "scan"        // catalog/table/CLOB scans
	PhaseMaterialize = "materialize" // decoding records into DOM/rows
	PhaseEval        = "eval"        // XQuery evaluation over the DOM
)

// Span attributes wall-clock time to a named phase. Obtain one with
// Registry.StartSpan and finish it with End; the elapsed time lands in
// the "phase.<name>.ns" counter and the "phase.<name>" histogram. The
// zero/nil Span is inert, so spans on a nil registry cost two monotonic
// clock reads and nothing else.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// StartSpan begins timing a phase. Safe on a nil registry.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{reg: r, name: name, start: time.Now()}
}

// End stops the span and records its duration. Calling End on the zero
// Span is a no-op; calling it twice records the phase twice (don't).
func (s Span) End() { s.reg.AddPhase(s.name, time.Since(s.start)) }

// AddPhase attributes d to a named phase directly: for a caller that
// times the stretches of two interleaved phases itself and records each
// once, so that they partition its time instead of nesting. Safe on a
// nil registry.
func (r *Registry) AddPhase(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.Counter(phasePrefix + name + phaseSuffix).Add(int64(d))
	r.Histogram(phasePrefix + name).Observe(d)
}
