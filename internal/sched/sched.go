// Package sched implements the affinity-based scheduling policies the
// paper proposes and evaluates.
//
// Under the Locking paradigm any processor may process any packet, so
// the schedulable unit is a packet and the policies differ in which
// processor a packet is placed on and which packet an idle processor
// picks up:
//
//	FCFS         — central queue, no affinity (the baseline).
//	MRU          — prefer the processor the packet's stream most
//	               recently used, both at arrival and at dispatch.
//	ThreadPools  — per-processor thread pools: packets join their
//	               stream's home pool; idle processors steal from the
//	               longest pool when their own is empty.
//	WiredStreams — streams statically bound to processors; no stealing.
//
// Under IPS the schedulable unit is a protocol stack (streams are
// partitioned across stacks, and a stack processes its packets
// serially):
//
//	IPSWired — each stack is bound to one processor.
//	IPSMRU   — a ready stack prefers its most-recently-used processor
//	           but may run anywhere idle.
package sched

import (
	"fmt"

	"affinity/internal/des"
	"affinity/internal/fifo"
)

// Packet is the scheduling view of a packet: its stream, its footprint
// entity (stream under Locking, stack under IPS) and its arrival time.
// Seq is a 1-based serial number assigned at arrival; the observability
// layer uses it to correlate a packet's lifecycle events.
type Packet struct {
	Stream int
	Entity int
	Arrive des.Time
	Seq    uint64
	// StreamSeq is the packet's 1-based position within its stream's
	// arrival order; the reordering metric compares completion order
	// against it.
	StreamSeq uint64
}

// Kind names a scheduling policy.
type Kind int

// Locking-paradigm policies, then IPS-paradigm policies, then the
// NIC-hash dispatch policies (also Locking: any processor can process
// any packet, the hash just decides where it lands). New kinds must be
// appended — the ordinal is part of sim.CacheKey — and added to exactly
// one of the paradigm sets below; kindCount keeps the exhaustiveness
// test honest.
const (
	FCFS Kind = iota
	MRU
	ThreadPools
	WiredStreams
	IPSWired
	IPSMRU
	IPSRandom
	// RSS models receive-side scaling: a static stream-hash through an
	// indirection table picks the packet's processor, so a flow's
	// packets always land on one core (no reordering by construction)
	// whether or not that core is the warm one.
	RSS
	// FlowDirector models an ATR-style rebalancing hash table: a flow
	// whose home queue backs up is re-homed to a less-loaded core while
	// its earlier packets still wait at the old one — reproducing the
	// in-flight reordering pathology of arXiv:1106.0443.
	FlowDirector
	// AffinitySteal is the parameterized work-stealing family (see
	// steal.go): steal penalty, depth threshold and cold-start bias span
	// a space whose corners reproduce FCFS and MRU bit for bit and, at
	// Penalty = +Inf, are the WiredStreams dispatcher itself; searched by
	// internal/policysearch.
	AffinitySteal

	// kindCount sentinel: keep last.
	kindCount
)

func (k Kind) String() string {
	switch k {
	case FCFS:
		return "FCFS"
	case MRU:
		return "MRU"
	case ThreadPools:
		return "ThreadPools"
	case WiredStreams:
		return "WiredStreams"
	case IPSWired:
		return "IPS-Wired"
	case IPSMRU:
		return "IPS-MRU"
	case IPSRandom:
		return "IPS-Random"
	case RSS:
		return "RSS"
	case FlowDirector:
		return "FlowDirector"
	case AffinitySteal:
		return "AffinitySteal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ForLocking reports whether the policy applies to the Locking paradigm.
// Membership is an explicit set, not an ordinal range: ranges silently
// misclassify newly appended kinds (the hash policies sit above the IPS
// block, so `k <= WiredStreams` would have excluded them), and a
// negative or otherwise out-of-range Kind must fail paradigm validation
// rather than pass it. TestKindClassificationExhaustive fails when a
// new Kind joins neither paradigm.
func (k Kind) ForLocking() bool {
	switch k {
	case FCFS, MRU, ThreadPools, WiredStreams, RSS, FlowDirector, AffinitySteal:
		return true
	}
	return false
}

// ForIPS reports whether the policy applies to the IPS paradigm.
func (k Kind) ForIPS() bool {
	switch k {
	case IPSWired, IPSMRU, IPSRandom:
		return true
	}
	return false
}

// Placement is what the dispatchers of both paradigms share: what they
// learn from completions, how they survive faults, and what the
// observability layer reads. An entity is a stream under Locking and a
// stack under IPS.
type Placement interface {
	// RanOn informs the dispatcher that the entity's work completed on
	// proc (updates MRU/affinity state).
	RanOn(entity, proc int)
	// ProcDown removes proc from service (fault injection): policies
	// with static placement re-home the entities bound to it and move
	// their queued work; affinity memories pointing at it are
	// forgotten. The host stops offering proc in idle sets and stops
	// dispatching to it until ProcUp.
	ProcDown(proc int)
	// ProcUp restores proc to service. Wired policies move their
	// displaced entities back (their first runs after failback start
	// cold — the simulator wiped the processor's state).
	ProcUp(proc int)
	// AffinityStats reports how many placement/dispatch decisions
	// landed work on the processor holding the entity's warm state,
	// out of the total decisions made.
	AffinityStats() (hits, total uint64)
	// PreferredProc returns the processor the policy would steer the
	// entity toward — its affinity target — or -1 when it has none
	// (no-affinity baselines, entity not seen yet). It is a pure read
	// for the decision ledger: it must not create or mutate placement
	// state.
	PreferredProc(entity int) int
}

// PacketDispatcher is the Locking-paradigm scheduling interface.
type PacketDispatcher interface {
	Placement
	// PickProcessor chooses an idle processor for an arriving packet,
	// or -1 to enqueue it instead. idle is the set of processors
	// currently free of protocol work (never empty when called).
	PickProcessor(p Packet, idle []int) int
	// Enqueue records a packet that could not be placed.
	Enqueue(p Packet)
	// Dispatch returns the next packet for a processor that just became
	// idle, or ok=false if it should stay idle.
	Dispatch(proc int) (Packet, bool)
	// Queued returns the number of packets waiting.
	Queued() int
	// DepthFor returns how many packets are waiting in the queue p
	// would join if enqueued now — the quantity a bounded-queue
	// admission decision compares against the capacity.
	DepthFor(p Packet) int
}

// affinityCount instruments a policy's decisions for the observability
// layer: each placement or dispatch counts once, as a hit when the
// chosen processor is the one the entity is warm on. The no-affinity
// baselines (FCFS, IPS-Random) report zero hits by construction.
type affinityCount struct {
	hits, decisions uint64
}

func (c *affinityCount) note(hit bool) {
	c.decisions++
	if hit {
		c.hits++
	}
}

// AffinityStats returns the hit and decision counts.
func (c *affinityCount) AffinityStats() (hits, total uint64) {
	return c.hits, c.decisions
}

// NewPacketDispatcherFull builds the Locking dispatcher for kind k on
// n processors. Policies that place a no-affinity packet on "any idle
// processor" pick uniformly at random among the idle set, so that the
// FCFS baseline does not accidentally accrue affinity by always reusing
// the lowest-numbered processor.
//
// lookahead bounds the MRU-style dispatch scan: a processor picking new
// work examines only the first lookahead waiting packets for one with
// affinity before falling back to the FIFO head (values below 1 mean
// 1). Real dispatchers scan a bounded prefix (the scan happens under
// the queue lock); unbounded lookahead would let MRU degenerate into
// Wired-Streams-with-stealing at saturation and mask the policy
// crossover the paper reports.
//
// hc configures the hash-dispatch policies (RSS, FlowDirector), whose
// defaults the zero HashConfig selects; sc is the AffinitySteal family
// point and clock, whose zero value is the FCFS corner. Each is ignored
// by the kinds it does not apply to.
func NewPacketDispatcherFull(k Kind, n int, rng *des.RNG, lookahead int, hc HashConfig, sc StealConfig) PacketDispatcher {
	if lookahead < 1 {
		lookahead = 1
	}
	switch k {
	case FCFS:
		return &fcfs{rng: rng}
	case MRU:
		return &mru{rng: rng, lookahead: lookahead}
	case ThreadPools:
		return newPools(n, true, rng)
	case WiredStreams:
		return newPools(n, false, rng)
	case RSS:
		hc.Rebalance = -1 // static by definition
		return newHashed(n, hc)
	case FlowDirector:
		return newHashed(n, hc)
	case AffinitySteal:
		if sc.Pinned() {
			return newPools(n, false, rng)
		}
		return newSteal(rng, lookahead, sc)
	default:
		panic(fmt.Sprintf("sched: %v is not a Locking policy", k))
	}
}

// fcfs: one central FIFO, no affinity.
type fcfs struct {
	affinityCount
	q   fifo.Queue[Packet]
	rng *des.RNG
}

func (f *fcfs) PickProcessor(_ Packet, idle []int) int {
	f.note(false)
	return idle[f.rng.Intn(len(idle))]
}
func (f *fcfs) Enqueue(p Packet) { f.q.Push(p) }
func (f *fcfs) Dispatch(int) (Packet, bool) {
	p, ok := f.q.Pop()
	if ok {
		f.note(false)
	}
	return p, ok
}
func (*fcfs) RanOn(int, int) {}
func (f *fcfs) Queued() int  { return f.q.Len() }

func (f *fcfs) DepthFor(Packet) int { return f.q.Len() }

// FCFS has no placement state to degrade: the central queue serves
// whichever processors remain.
func (*fcfs) ProcDown(int) {}
func (*fcfs) ProcUp(int)   {}

func (*fcfs) PreferredProc(int) int { return -1 }

// lastRan maps each entity to the processor it last ran on, −1 while
// none is known. Entities are dense indices (streams under Locking,
// stacks under IPS), so a slice stands in for a map on the per-packet
// path. It grows on set: the constructors are not told the entity
// count. The home table keeps its slots' processors in it too.
type lastRan []int

func (t lastRan) get(entity int) int {
	if uint(entity) < uint(len(t)) {
		return t[entity]
	}
	return -1
}

func (t *lastRan) set(entity, proc int) {
	for len(*t) <= entity {
		*t = append(*t, -1)
	}
	(*t)[entity] = proc
}

// forget drops every entity's memory of proc: a failed processor's
// cache contents are lost, so steering work back there on recovery
// would pay the cold-start cost for no benefit.
func (t lastRan) forget(proc int) {
	for e, h := range t {
		if h == proc {
			t[e] = -1
		}
	}
}

// mru: central FIFO with affinity preference at both decision points.
type mru struct {
	affinityCount
	q         fifo.Queue[Packet]
	last      lastRan
	rng       *des.RNG
	lookahead int
}

func (m *mru) PickProcessor(p Packet, idle []int) int {
	if proc := m.last.get(p.Entity); proc >= 0 {
		for _, i := range idle {
			if i == proc {
				m.note(true)
				return proc
			}
		}
	}
	// No affinity or its processor is busy: take any idle one rather
	// than wait (work conservation, as in the paper's MRU policy).
	m.note(false)
	return idle[m.rng.Intn(len(idle))]
}

func (m *mru) Enqueue(p Packet) { m.q.Push(p) }

func (m *mru) Dispatch(proc int) (Packet, bool) {
	// Prefer the oldest packet (within the bounded lookahead) whose
	// stream has affinity for this processor; fall back to the head.
	if i := m.q.IndexFunc(m.lookahead, func(p Packet) bool {
		return m.last.get(p.Entity) == proc
	}); i >= 0 {
		m.note(true)
		return m.q.RemoveAt(i), true
	}
	p, ok := m.q.Pop()
	if ok {
		// The FIFO head may still happen to be affine.
		m.note(m.last.get(p.Entity) == proc)
	}
	return p, ok
}

func (m *mru) RanOn(entity, proc int) { m.last.set(entity, proc) }
func (m *mru) Queued() int            { return m.q.Len() }

func (m *mru) DepthFor(Packet) int { return m.q.Len() }

// ProcDown forgets every affinity pointing at the failed processor.
func (m *mru) ProcDown(proc int) { m.last.forget(proc) }

func (*mru) ProcUp(int) {}

func (m *mru) PreferredProc(entity int) int { return m.last.get(entity) }

// pools: per-processor queues with a per-stream home, assigned
// round-robin at first touch from the table's cursor (the one re-homing
// uses too). With stealing it is the ThreadPools policy, without it
// Wired-Streams.
type pools struct {
	affinityCount
	queues   []fifo.Queue[Packet]
	tab      homeTable // slot = entity, grown at first touch
	stealing bool
	rng      *des.RNG
}

func newPools(n int, stealing bool, rng *des.RNG) *pools {
	return &pools{queues: make([]fifo.Queue[Packet], n), tab: newHomeTable(0, n),
		stealing: stealing, rng: rng}
}

func (p *pools) homeOf(entity int) int {
	if h := p.tab.cur.get(entity); h >= 0 {
		return h
	}
	h := p.tab.next()
	p.tab.cur.set(entity, h)
	if !p.stealing {
		// ThreadPools has no failback home: stealing re-balances on
		// its own once the processor is back.
		p.tab.home.set(entity, h)
	}
	return h
}

func (p *pools) packetHome(pk Packet) int { return p.homeOf(pk.Entity) }

func (p *pools) PickProcessor(pk Packet, idle []int) int {
	h := p.homeOf(pk.Entity)
	for _, i := range idle {
		if i == h {
			p.note(true)
			return h
		}
	}
	if p.stealing {
		// ThreadPools: an idle processor's pool thread will take the
		// packet rather than let it wait behind a busy home.
		p.note(false)
		return idle[p.rng.Intn(len(idle))]
	}
	return -1 // Wired-Streams: wait for the home processor (no decision)
}

func (p *pools) Enqueue(pk Packet) { p.queues[p.homeOf(pk.Entity)].Push(pk) }

func (p *pools) Dispatch(proc int) (Packet, bool) {
	if pk, ok := p.queues[proc].Pop(); ok {
		// A packet from the processor's own pool is affine (stealing
		// migrates the home along with the stream, see RanOn).
		p.note(p.tab.cur.get(pk.Entity) == proc)
		return pk, true
	}
	if !p.stealing {
		return Packet{}, false
	}
	// Steal the oldest packet from the longest pool.
	longest, max := -1, 0
	for i := range p.queues {
		if l := p.queues[i].Len(); l > max {
			longest, max = i, l
		}
	}
	if longest < 0 {
		return Packet{}, false
	}
	p.note(false)
	return p.queues[longest].Pop()
}

func (p *pools) RanOn(entity, proc int) {
	if p.stealing {
		// Stealing migrates the stream's home with it, keeping
		// subsequent packets near the warmed state.
		p.tab.cur.set(entity, proc)
	}
}

func (p *pools) Queued() int {
	n := 0
	for i := range p.queues {
		n += p.queues[i].Len()
	}
	return n
}

func (p *pools) DepthFor(pk Packet) int { return p.queues[p.homeOf(pk.Entity)].Len() }

// ProcDown re-homes the entities on the failed processor and moves its
// queued packets to their new pools in arrival order.
func (p *pools) ProcDown(proc int) {
	p.tab.down(proc)
	spill(p.queues, proc, p.packetHome)
}

// ProcUp restores the processor. Wired-Streams entities originally
// homed here fail back with their queued packets (a stream's packets
// all sit in one pool, so its order holds).
func (p *pools) ProcUp(proc int) {
	if p.tab.up(proc) {
		pull(p.queues, proc, p.packetHome)
	}
}

// PreferredProc reads the entity's home without assigning one — homeOf
// would, and ledger reads must not shift round-robin placement.
func (p *pools) PreferredProc(entity int) int { return p.tab.cur.get(entity) }
