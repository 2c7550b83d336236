package sched

import (
	"encoding/json"
	"math"

	"affinity/internal/des"
	"affinity/internal/fifo"
)

// This file implements the AffinitySteal policy family: a work-stealing
// packet dispatcher parameterized by (Penalty, DepthThreshold, ColdBias)
// whose corner points are — bit for bit, RNG draw for RNG draw — the
// paper's fixed policies:
//
//	Penalty = +Inf                        ≡ WiredStreams (static pinning;
//	                                        NewPacketDispatcherFull builds
//	                                        the Wired-Streams dispatcher)
//	Penalty = 0, DepthThreshold = 0,
//	ColdBias = 0                          ≡ FCFS (blind work conservation)
//	Penalty = 0, DepthThreshold = 0,
//	ColdBias = 1                          ≡ MRU (warm preference, same
//	                                        bounded dispatch lookahead)
//
// Between the corners the family spans policies the paper never
// evaluates: a cold processor may take ("steal") a queued packet that is
// warm elsewhere only once the backlog has grown to DepthThreshold AND
// the packet has waited at least Penalty µs — an affinity-aware steal
// delay in the spirit of arXiv:1810.09442 — while ColdBias in (0, 1)
// prefers the warm processor probabilistically. internal/policysearch
// searches this space for configurations that beat every fixed policy.

// StealParams is the point in the AffinitySteal family's parameter
// space. The zero value is the FCFS corner.
type StealParams struct {
	// Penalty is the time (µs) a queued packet must have waited before a
	// processor it is not warm on may steal it at dispatch. 0 allows
	// immediate stealing; +Inf never steals at all, which is
	// Wired-Streams: NewPacketDispatcherFull returns that dispatcher.
	Penalty float64
	// DepthThreshold is the backlog the queue must hold before a cold
	// steal is allowed; 0 never blocks on depth.
	DepthThreshold int
	// ColdBias is the warm-preference strength in [0, 1]: 0 places and
	// dispatches blindly (FCFS-like), 1 always prefers the warm
	// processor (MRU-like), fractional values prefer it with that
	// probability at placement.
	ColdBias float64
}

// Pinned reports whether the parameters select the statically pinned
// corner, the Wired-Streams dispatcher.
func (s StealParams) Pinned() bool { return math.IsInf(s.Penalty, 1) }

// MarshalJSON writes an infinite Penalty as "inf", the spelling the
// -policy and -penalties flags accept: JSON has no number for +Inf, and
// null would decode as 0, the FCFS corner's penalty. A finite Penalty
// is a JSON number, as encoding/json writes it.
func (s StealParams) MarshalJSON() ([]byte, error) {
	type plain StealParams
	if !s.Pinned() {
		return json.Marshal(plain(s))
	}
	return json.Marshal(struct {
		Penalty string
		plain
	}{"inf", plain(s)})
}

// UnmarshalJSON reads what MarshalJSON writes.
func (s *StealParams) UnmarshalJSON(data []byte) error {
	type plain StealParams
	v := struct {
		Penalty json.RawMessage
		*plain
	}{plain: (*plain)(s)}
	if err := json.Unmarshal(data, &v); err != nil || v.Penalty == nil {
		return err
	}
	if string(v.Penalty) == `"inf"` {
		s.Penalty = math.Inf(1)
		return nil
	}
	return json.Unmarshal(v.Penalty, &s.Penalty)
}

// StealConfig is StealParams plus the runtime hookup: Now supplies the
// current virtual time for the steal-penalty age test. Both backends
// wire their clock in; it may be nil when Penalty is 0 or +Inf (the age
// test is never evaluated at those settings).
type StealConfig struct {
	StealParams
	Now func() des.Time
}

// steal implements PacketDispatcher for the AffinitySteal family at a
// finite Penalty: one central arrival-ordered queue plus a last-ran warm
// table, with the steal gate applied when a processor pulls queued work
// it is not warm on.
type steal struct {
	affinityCount
	p         StealParams
	now       func() des.Time
	lookahead int
	rng       *des.RNG
	q         fifo.Queue[Packet]
	warm      lastRan
}

func newSteal(rng *des.RNG, lookahead int, sc StealConfig) *steal {
	if sc.Penalty > 0 && sc.Now == nil {
		panic("sched: AffinitySteal with a finite non-zero Penalty needs StealConfig.Now")
	}
	return &steal{p: sc.StealParams, now: sc.Now, lookahead: lookahead, rng: rng}
}

func (s *steal) PickProcessor(pk Packet, idle []int) int {
	if s.p.ColdBias > 0 {
		if proc := s.warm.get(pk.Entity); proc >= 0 {
			for _, i := range idle {
				if i == proc {
					// ColdBias = 1 takes the warm processor outright
					// (no RNG draw — the MRU corner's draw sequence);
					// fractional bias takes it with that probability.
					if s.p.ColdBias == 1 || s.rng.Float64() < s.p.ColdBias {
						s.note(true)
						return proc
					}
					break
				}
			}
		}
	}
	s.note(false)
	return idle[s.rng.Intn(len(idle))]
}

func (s *steal) Enqueue(pk Packet) { s.q.Push(pk) }

// stealAllowed is the family's gate: a processor the packet is not warm
// on may take it only when the backlog has reached DepthThreshold and
// the packet has aged past Penalty. Both corners (Penalty = 0,
// DepthThreshold = 0) short-circuit before touching the clock.
func (s *steal) stealAllowed(pk Packet) bool {
	if s.q.Len() < s.p.DepthThreshold {
		return false
	}
	if s.p.Penalty == 0 {
		return true
	}
	return float64(s.now()-pk.Arrive) >= s.p.Penalty
}

func (s *steal) Dispatch(proc int) (Packet, bool) {
	// Warm preference first: the oldest packet within the bounded
	// lookahead that is warm on this processor — MRU's exact scan.
	if s.p.ColdBias > 0 {
		if i := s.q.IndexFunc(s.lookahead, func(pk Packet) bool {
			return s.warm.get(pk.Entity) == proc
		}); i >= 0 {
			s.note(true)
			return s.q.RemoveAt(i), true
		}
	}
	// The head: taking it is a steal only when it is warm on a
	// different processor; packets with no warm state anywhere have
	// nothing to lose by running here.
	if s.q.Len() > 0 {
		pk := s.q.Front()
		h := s.warm.get(pk.Entity)
		if h < 0 || h == proc || s.stealAllowed(pk) {
			s.q.Pop()
			s.note(s.p.ColdBias > 0 && h == proc)
			return pk, true
		}
	}
	// Steal refused: the head stays for its warm processor, but this
	// processor may still serve the oldest packet that is warm here (or
	// warm nowhere) rather than idle past work it owns. The scan is
	// unbounded — it runs only on middle family points (the corners
	// always take the head), and RemoveAt's prefix shift is the price
	// of preserving arrival order among the packets left behind.
	if i := s.q.IndexFunc(s.q.Len(), func(pk Packet) bool {
		h := s.warm.get(pk.Entity)
		return h < 0 || h == proc
	}); i >= 0 {
		pk := s.q.RemoveAt(i)
		s.note(s.p.ColdBias > 0 && s.warm.get(pk.Entity) == proc)
		return pk, true
	}
	return Packet{}, false
}

func (s *steal) RanOn(entity, proc int) { s.warm.set(entity, proc) }
func (s *steal) Queued() int            { return s.q.Len() }
func (s *steal) DepthFor(Packet) int    { return s.q.Len() }

// ProcDown forgets warm state pointing at the failed processor (the MRU
// discipline — its cache contents are lost); nothing else is bound to a
// processor, so ProcUp has nothing to restore.
func (s *steal) ProcDown(proc int) { s.warm.forget(proc) }

func (*steal) ProcUp(int) {}

// PreferredProc mirrors the corner policy's ledger view: the warm table
// when the bias prefers warmth, and none at all for the blind
// ColdBias = 0 family members (FCFS parity).
func (s *steal) PreferredProc(entity int) int {
	if s.p.ColdBias == 0 {
		return -1
	}
	return s.warm.get(entity)
}
