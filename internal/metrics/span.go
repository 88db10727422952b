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

// phaseNames lists the canonical phases; its order is the index of a
// Registry's phase cells.
var phaseNames = [...]string{PhaseParse, PhasePlan, PhaseIndexProbe, PhaseScan, PhaseMaterialize, PhaseEval}

// phaseCell is where one phase's time lands: the "phase.<name>.ns"
// counter and the "phase.<name>" histogram.
type phaseCell struct {
	ns   *Counter
	hist *Histogram
}

func (c *phaseCell) add(d time.Duration) {
	c.ns.Add(int64(d))
	c.hist.Observe(d)
}

// phase resolves a phase name to its cell. A canonical phase is looked
// up by name once per registry, on its first span, and served from its
// slot afterwards, so recording it builds no strings and takes no lock;
// any other name is resolved on every call.
func (r *Registry) phase(name string) *phaseCell {
	for i, canonical := range phaseNames {
		if name != canonical {
			continue
		}
		c := r.phases[i].Load()
		if c == nil {
			// Racing first spans build equal cells: the registry hands both
			// the same counter and histogram.
			c = r.newPhaseCell(name)
			r.phases[i].Store(c)
		}
		return c
	}
	return r.newPhaseCell(name)
}

func (r *Registry) newPhaseCell(name string) *phaseCell {
	return &phaseCell{ns: r.Counter(phasePrefix + name + phaseSuffix), hist: r.Histogram(phasePrefix + name)}
}

// Span attributes wall-clock time to a named phase. Obtain one with
// Registry.StartSpan and finish it with End; the elapsed time lands in
// the "phase.<name>.ns" counter and the "phase.<name>" histogram. The
// zero Span is inert, so spans on a nil registry cost nothing.
type Span struct {
	cell  *phaseCell
	start time.Time
}

// StartSpan begins timing a phase. Safe on a nil registry.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{cell: r.phase(name), start: time.Now()}
}

// End stops the span and records its duration. Calling End on the zero
// Span is a no-op; calling it twice records the phase twice (don't).
func (s Span) End() {
	if s.cell != nil {
		s.cell.add(time.Since(s.start))
	}
}

// AddPhase attributes d to a named phase directly: for a caller that
// times the stretches of two interleaved phases itself and records each
// once, so that they partition its time instead of nesting. Safe on a
// nil registry.
func (r *Registry) AddPhase(name string, d time.Duration) {
	if r != nil {
		r.phase(name).add(d)
	}
}
