package sched

import (
	"fmt"

	"affinity/internal/des"
	"affinity/internal/fifo"
)

// StackDispatcher is the IPS-paradigm scheduling interface. The
// schedulable unit is a ready stack (one with queued packets that is not
// currently running).
type StackDispatcher interface {
	Placement
	// PickProcessor chooses an idle processor for a stack that just
	// became ready, or -1 to queue the stack instead.
	PickProcessor(stack int, idle []int) int
	// EnqueueStack records a ready stack that could not be placed.
	EnqueueStack(stack int)
	// DispatchStack returns the next stack for a processor that just
	// became idle, or -1 if it should stay idle.
	DispatchStack(proc int) int
}

// NewStackDispatcherLookahead builds the IPS dispatcher for kind k with
// the given number of stacks and processors. The MRU policy's
// no-affinity fallback picks uniformly among idle processors, and its
// dispatch scan is bounded by lookahead (see NewPacketDispatcherFull).
func NewStackDispatcherLookahead(k Kind, stacks, procs int, rng *des.RNG, lookahead int) StackDispatcher {
	if lookahead < 1 {
		lookahead = 1
	}
	switch k {
	case IPSWired:
		return newWiredStacks(stacks, procs)
	case IPSMRU:
		return &mruStacks{rng: rng, lookahead: lookahead}
	case IPSRandom:
		return &randomStacks{rng: rng}
	default:
		panic(fmt.Sprintf("sched: %v is not an IPS policy", k))
	}
}

// wiredStacks: stack k is bound to processor k mod procs (its home
// table's slot k); each processor has a FIFO runqueue of its ready
// stacks. The table's cursor, which only re-homing moves, starts at 0.
type wiredStacks struct {
	affinityCount
	tab  homeTable
	runq []fifo.Queue[int]
}

func newWiredStacks(stacks, procs int) *wiredStacks {
	return &wiredStacks{tab: newHomeTable(stacks, procs), runq: make([]fifo.Queue[int], procs)}
}

func (w *wiredStacks) stackHome(stack int) int { return w.tab.cur[stack] }

func (w *wiredStacks) PickProcessor(stack int, idle []int) int {
	home := w.tab.cur[stack]
	for _, i := range idle {
		if i == home {
			w.note(true)
			return home
		}
	}
	return -1 // wired: wait for the home processor (no decision)
}

func (w *wiredStacks) EnqueueStack(stack int) { w.runq[w.tab.cur[stack]].Push(stack) }

func (w *wiredStacks) DispatchStack(proc int) int {
	s, ok := w.runq[proc].Pop()
	if !ok {
		return -1
	}
	w.note(true) // a wired run queue only ever holds home stacks
	return s
}

func (*wiredStacks) RanOn(int, int) {}

// ProcDown re-wires the failed processor's stacks and moves its ready
// queue to their new homes, preserving queue order.
func (w *wiredStacks) ProcDown(proc int) {
	w.tab.down(proc)
	spill(w.runq, proc, w.stackHome)
}

// ProcUp wires the processor's original stacks back and pulls their
// queued entries home.
func (w *wiredStacks) ProcUp(proc int) {
	if w.tab.up(proc) {
		pull(w.runq, proc, w.stackHome)
	}
}

func (w *wiredStacks) PreferredProc(stack int) int { return w.tab.cur[stack] }

// mruStacks: a central FIFO of ready stacks; placement prefers a stack's
// most-recently-used processor, and an idle processor prefers a stack
// with affinity for it.
type mruStacks struct {
	affinityCount
	ready     fifo.Queue[int]
	last      lastRan
	rng       *des.RNG
	lookahead int
}

func (m *mruStacks) PickProcessor(stack int, idle []int) int {
	if proc := m.last.get(stack); proc >= 0 {
		for _, i := range idle {
			if i == proc {
				m.note(true)
				return proc
			}
		}
	}
	m.note(false)
	return idle[m.rng.Intn(len(idle))]
}

func (m *mruStacks) EnqueueStack(stack int) { m.ready.Push(stack) }

func (m *mruStacks) DispatchStack(proc int) int {
	if m.ready.Len() == 0 {
		return -1
	}
	pick := max(m.ready.IndexFunc(m.lookahead, func(s int) bool {
		return m.last.get(s) == proc
	}), 0)
	s := m.ready.RemoveAt(pick)
	m.note(m.last.get(s) == proc)
	return s
}

func (m *mruStacks) RanOn(stack, proc int) { m.last.set(stack, proc) }

// ProcDown forgets affinities pointing at the failed processor.
func (m *mruStacks) ProcDown(proc int) { m.last.forget(proc) }

func (*mruStacks) ProcUp(int) {}

func (m *mruStacks) PreferredProc(stack int) int { return m.last.get(stack) }

// randomStacks is the no-affinity IPS baseline: a ready stack is placed
// on a uniformly random idle processor and dispatched FIFO, with no
// memory of where it ran before. The affinity policies are measured
// against it in the reduction experiments.
type randomStacks struct {
	affinityCount
	ready fifo.Queue[int]
	rng   *des.RNG
}

func (r *randomStacks) PickProcessor(_ int, idle []int) int {
	r.note(false)
	return idle[r.rng.Intn(len(idle))]
}

func (r *randomStacks) EnqueueStack(stack int) { r.ready.Push(stack) }

func (r *randomStacks) DispatchStack(int) int {
	s, ok := r.ready.Pop()
	if !ok {
		return -1
	}
	r.note(false)
	return s
}

func (*randomStacks) RanOn(int, int) {}

// IPS-Random has no placement state to degrade.
func (*randomStacks) ProcDown(int) {}
func (*randomStacks) ProcUp(int)   {}

func (*randomStacks) PreferredProc(int) int { return -1 }
