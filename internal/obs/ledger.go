package obs

// LedgerRecorder retains every decision of a run, in order, with its
// full candidate set. It exists for counterfactual replay
// (internal/policysearch): replaying a ledger needs every decision from
// the start of the run, numbered exactly as they were recorded.
// Candidate sets are copied out of the emitter's scratch buffer into a
// growing arena, so retained decisions stay valid across further
// recording.
type LedgerRecorder struct {
	decisions []Decision
	arena     []Candidate
}

// NewLedgerRecorder returns an empty ledger.
func NewLedgerRecorder() *LedgerRecorder { return &LedgerRecorder{} }

// RecordDecision implements DecisionRecorder, copying the candidate set.
func (l *LedgerRecorder) RecordDecision(d Decision) {
	start := len(l.arena)
	if cap(l.arena)-start < len(d.Candidates) {
		// Growing the shared arena would relocate earlier blocks' backing
		// array out from under their aliases; start a fresh one and let
		// the old array live on, still referenced by recorded decisions.
		l.arena = make([]Candidate, 0, max(4*len(d.Candidates), 1024))
		start = 0
	}
	l.arena = append(l.arena, d.Candidates...)
	d.Candidates = l.arena[start : start+len(d.Candidates) : start+len(d.Candidates)]
	l.decisions = append(l.decisions, d)
}

// Len returns how many decisions the ledger holds.
func (l *LedgerRecorder) Len() int { return len(l.decisions) }

// At returns decision i (0-based, recording order). The i-th recorded
// decision's ordinal is exactly i — the same numbering a
// sim.DecisionOverride observes — which is what makes a recorded ledger
// replayable.
func (l *LedgerRecorder) At(i int) Decision { return l.decisions[i] }

// Decisions returns the ledger in recording order. The slice is the
// recorder's own storage: callers must not append to or reorder it.
func (l *LedgerRecorder) Decisions() []Decision { return l.decisions }
