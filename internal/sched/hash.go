package sched

import "affinity/internal/fifo"

// This file implements the NIC-hash dispatch policies. Both model the
// hardware flow-steering path of a multi-queue NIC: the packet's stream
// id is hashed through a fixed-size indirection table whose entries
// name processors, and the packet joins that processor's queue — no
// stealing, no work-conservation fallback, exactly like Wired-Streams
// except that the home assignment is a hash rather than first-seen
// round-robin.
//
//	RSS          — the table is static ("A Transport-Friendly NIC for
//	               Multicore/Multiprocessor Systems", arXiv:1106.0445).
//	               A flow's packets always land on one core, so
//	               per-flow order is preserved by construction, but the
//	               hash is blind to where the flow's cache state is
//	               warm.
//	FlowDirector — an ATR-style table that re-homes a flow when its
//	               home queue backs up ("Why Does Flow Director Cause
//	               Packet Reordering?", arXiv:1106.0443). The re-homed
//	               flow's new packets run on the new core while its
//	               earlier packets still wait at the old one, so a
//	               rebalance point can complete packets out of arrival
//	               order — the reordering pathology the paper measures.

// minHashTableSize is the smallest indirection-table length: 128
// entries, as in the RSS redirection tables of the NICs both papers
// measure. tableSizeFor grows it for larger machines.
const minHashTableSize = 128

// tableSizeFor returns the indirection-table length for n processors:
// the smallest power of two that is both ≥ minHashTableSize and ≥ 2×n.
// A fixed 128-entry table on a 1024-core topology would leave 7 of
// every 8 cores with no bucket at all; doubling until the table holds
// at least two buckets per core keeps the driver's round-robin fill
// covering every core while staying byte-identical to the historical
// constant for the ≤ 64-core machines the goldens pin.
func tableSizeFor(n int) int {
	size := minHashTableSize
	for size < 2*n {
		size *= 2
	}
	return size
}

// HashConfig configures the hash-dispatch policies; the zero value
// selects the defaults.
type HashConfig struct {
	// Rebalance is FlowDirector's re-home trigger: a flow is moved off
	// its home when the home queue already holds at least Rebalance
	// waiting packets and a better target exists. 0 selects the default
	// (DefaultRebalance); a negative value disables rebalancing, making
	// FlowDirector behave exactly like RSS. RSS ignores it.
	Rebalance int
	// Identity replaces the hash mix with the identity function
	// (bucket = stream mod table size). Diagnostic only: it lines the
	// table up with small stream counts so hash placement can be
	// compared against Wired-Streams' round-robin in equivalence tests.
	Identity bool
}

// DefaultRebalance is FlowDirector's default re-home trigger depth.
const DefaultRebalance = 8

// hashed implements PacketDispatcher for RSS and FlowDirector. Its
// home table's slots are the indirection-table buckets, seeded
// bucket i → processor i mod n.
type hashed struct {
	affinityCount
	queues   []fifo.Queue[Packet]
	tab      homeTable
	override lastRan // entity → re-homed processor (FlowDirector only)
	// rebalance is the re-home trigger depth; < 0 disables rebalancing
	// (always for RSS).
	rebalance int
	identity  bool
}

func newHashed(n int, hc HashConfig) *hashed {
	if hc.Rebalance == 0 {
		hc.Rebalance = DefaultRebalance
	}
	return &hashed{queues: make([]fifo.Queue[Packet], n), tab: newHomeTable(tableSizeFor(n), n),
		rebalance: hc.Rebalance, identity: hc.Identity}
}

// mix64 is the splitmix64 finalizer — the stand-in for the NIC's
// Toeplitz hash. Distinct small integers spread across the table.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (h *hashed) bucket(entity int) int {
	if h.identity {
		return entity % len(h.tab.cur)
	}
	return int(mix64(uint64(entity)) % uint64(len(h.tab.cur)))
}

// homeOf is a pure read: the table (plus any FlowDirector override)
// fully determines a flow's processor, so unlike pools.homeOf there is
// no first-touch assignment to record.
func (h *hashed) homeOf(entity int) int {
	if p := h.override.get(entity); p >= 0 {
		return p
	}
	return h.tab.cur[h.bucket(entity)]
}

func (h *hashed) packetHome(pk Packet) int { return h.homeOf(pk.Entity) }

func (h *hashed) PickProcessor(pk Packet, idle []int) int {
	home := h.homeOf(pk.Entity)
	for _, i := range idle {
		if i == home {
			h.note(true)
			return home
		}
	}
	// The home is busy. FlowDirector's ATR update fires here: the
	// arriving packet is a transmit-side sample, and if the home queue
	// has backed up past the trigger the flow is re-homed to the
	// lowest-numbered idle processor. Packets already queued at the old
	// home stay there — that is the reordering window.
	if h.rebalance >= 0 && h.queues[home].Len() >= h.rebalance {
		target := idle[0]
		for _, i := range idle[1:] {
			if i < target {
				target = i
			}
		}
		h.override.set(pk.Entity, target)
		h.note(false)
		return target
	}
	return -1 // wait for the home processor (no decision)
}

func (h *hashed) Enqueue(pk Packet) {
	home := h.homeOf(pk.Entity)
	// No idle processor anywhere: FlowDirector still samples the queue
	// depths and re-homes to the least-loaded live core when the gap
	// has grown past the trigger.
	if h.rebalance >= 0 && h.queues[home].Len() >= h.rebalance {
		if t := h.leastLoaded(home); t >= 0 &&
			h.queues[home].Len()-h.queues[t].Len() >= h.rebalance {
			h.override.set(pk.Entity, t)
			home = t
		}
	}
	h.queues[home].Push(pk)
}

// leastLoaded returns the live processor with the shortest queue
// (lowest index on ties), or -1 when no live processor other than home
// exists.
func (h *hashed) leastLoaded(home int) int {
	best, depth := -1, 0
	for i := range h.queues {
		if i == home || !h.tab.live[i] {
			continue
		}
		if d := h.queues[i].Len(); best < 0 || d < depth {
			best, depth = i, d
		}
	}
	return best
}

func (h *hashed) Dispatch(proc int) (Packet, bool) {
	pk, ok := h.queues[proc].Pop()
	if !ok {
		return Packet{}, false
	}
	// A re-homed flow's stale packets drain from the old core: those
	// dispatches are misses (the flow's warm state is being rebuilt at
	// the new home).
	h.note(h.homeOf(pk.Entity) == proc)
	return pk, true
}

// RanOn is a no-op: the hash, not execution history, owns placement.
func (*hashed) RanOn(int, int) {}

func (h *hashed) Queued() int {
	n := 0
	for i := range h.queues {
		n += h.queues[i].Len()
	}
	return n
}

func (h *hashed) DepthFor(pk Packet) int { return h.queues[h.homeOf(pk.Entity)].Len() }

// ProcDown rewrites every indirection-table entry, then every
// FlowDirector override, naming the failed processor onto the live
// ones — round-robin from the first live processor, like a driver
// rewriting the RSS redirection table — and migrates its queued packets
// to their new homes in arrival order.
func (h *hashed) ProcDown(proc int) {
	h.tab.cursor = 0
	h.tab.down(proc)
	h.tab.rehome(h.override, proc)
	spill(h.queues, proc, h.packetHome)
}

// ProcUp restores the processor and fails the table back to its
// canonical entries, with the displaced flows' queued packets.
// FlowDirector overrides stay where rebalancing put them — recovery
// does not undo ATR placement — unless every processor was down: then
// this one adopts them too, as it does the buckets.
func (h *hashed) ProcUp(proc int) {
	first := h.tab.nlive == 0
	moved := h.tab.up(proc)
	if first && h.tab.adopt(h.override, proc) {
		moved = true
	}
	if moved {
		pull(h.queues, proc, h.packetHome)
	}
}

// PreferredProc: the hash always names a target, even for a flow never
// seen — that is the point of hash dispatch.
func (h *hashed) PreferredProc(entity int) int { return h.homeOf(entity) }
