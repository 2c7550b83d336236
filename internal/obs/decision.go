package obs

import "fmt"

// The decision ledger is obs v2's second stream: where Event records
// what *happened*, a Decision records what was *decided* — the processor
// a dispatch decision chose plus every candidate it considered, each
// with its predicted execution cost. The simulator computes candidate
// costs from the same pure model functions it charges service with, so
// recording decisions never perturbs a run; the zero-overhead contract
// matches the event stream's (one nil-recorder branch per decision site
// when disabled, zero allocations per decision when enabled).

// DecisionPoint classifies where in the dispatch pipeline a decision was
// taken.
type DecisionPoint uint8

const (
	// PointPlace is an arrival placement: the dispatcher chose an idle
	// processor for newly arrived work, considering the whole idle set.
	PointPlace DecisionPoint = iota
	// PointDispatch is a processor pulling queued work: the processor is
	// fixed, so the candidate set is just it (the choice was which work,
	// not where).
	PointDispatch
	// PointSpill is a Hybrid overflow placement: a packet diverted to
	// the shared locking path, placed on a random idle processor.
	PointSpill

	numPoints
)

var pointNames = [numPoints]string{"place", "dispatch", "spill"}

func (p DecisionPoint) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("DecisionPoint(%d)", int(p))
}

// ParseDecisionPoint inverts DecisionPoint.String.
func ParseDecisionPoint(s string) (DecisionPoint, bool) {
	for i, name := range pointNames {
		if name == s {
			return DecisionPoint(i), true
		}
	}
	return 0, false
}

// Candidate is one processor a decision considered.
type Candidate struct {
	Proc int
	// Warm predicts a warm execution there: the entity's footprint
	// displacement is finite and under the F1 = 0.5 knee — the same
	// predicate the simulator's WarmFraction counts.
	Warm bool
	// XRefs is the displacing references the entity suffered on the
	// processor since it last ran there (+Inf = never ran, cold).
	XRefs float64
	// Cost is the predicted execution time there, µs (model output plus
	// fixed data-touching cost, slow-down faults applied).
	Cost float64
}

// Decision is one dispatch decision with its alternatives. Regret — the
// price of the choice against the cheapest candidate — is ChosenCost
// minus BestCost, ≥ 0 by construction.
type Decision struct {
	T      float64 // simulation time, µs
	Point  DecisionPoint
	Seq    uint64 // packet serial number (the packet the decision ran)
	Stream int
	Entity int
	// Chosen is the processor the decision selected; Preferred is the
	// dispatcher's affinity target for the entity (-1 when it has none —
	// no-affinity baselines, entity not seen yet).
	Chosen     int
	Preferred  int
	ChosenCost float64 // predicted cost on Chosen, µs
	BestCost   float64 // cheapest candidate's predicted cost, µs
	// Candidates is the considered set. It aliases the emitter's scratch
	// buffer and is valid only for the duration of the RecordDecision
	// call: recorders that retain decisions must copy it (LedgerRecorder
	// copies into its own arena).
	Candidates []Candidate
}

// Regret returns the predicted cost of the choice over the cheapest
// alternative considered, µs.
func (d Decision) Regret() float64 { return d.ChosenCost - d.BestCost }

// DecisionRecorder receives the decision stream. Like Recorder,
// implementations need not be goroutine-safe: the DES is
// single-threaded and the live backend serializes emissions under its
// dispatch lock.
type DecisionRecorder interface {
	RecordDecision(Decision)
}

// teeDecision fans decisions out to several recorders.
type teeDecision []DecisionRecorder

func (t teeDecision) RecordDecision(d Decision) {
	for _, r := range t {
		r.RecordDecision(d)
	}
}

// DecisionMulti returns a DecisionRecorder forwarding each decision to
// every non-nil rec, mirroring Multi.
func DecisionMulti(recs ...DecisionRecorder) DecisionRecorder {
	var t teeDecision
	for _, r := range recs {
		if r != nil {
			t = append(t, r)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}
