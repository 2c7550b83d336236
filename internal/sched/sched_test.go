package sched

import (
	"testing"

	"affinity/internal/des"
)

func pkt(stream int) Packet { return Packet{Stream: stream, Entity: stream} }

func newPD(k Kind, n int) PacketDispatcher {
	return NewPacketDispatcherFull(k, n, des.NewRNG(1), 1, HashConfig{}, StealConfig{})
}

func newSD(k Kind, stacks, procs int) StackDispatcher {
	return NewStackDispatcherLookahead(k, stacks, procs, des.NewRNG(1), 1)
}

// queuedStacks counts the ready stacks d holds, read from its queues.
func queuedStacks(d StackDispatcher) int {
	switch d := d.(type) {
	case *wiredStacks:
		n := 0
		for i := range d.runq {
			n += d.runq[i].Len()
		}
		return n
	case *mruStacks:
		return d.ready.Len()
	case *randomStacks:
		return d.ready.Len()
	}
	panic("unknown stack dispatcher")
}

func contains(set []int, v int) bool {
	for _, x := range set {
		if x == v {
			return true
		}
	}
	return false
}

func TestKindStringsAndParadigms(t *testing.T) {
	for _, k := range []Kind{FCFS, MRU, ThreadPools, WiredStreams, RSS, FlowDirector} {
		if !k.ForLocking() || k.ForIPS() {
			t.Errorf("%v paradigm flags wrong", k)
		}
	}
	for _, k := range []Kind{IPSWired, IPSMRU} {
		if k.ForLocking() || !k.ForIPS() {
			t.Errorf("%v paradigm flags wrong", k)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty string")
	}
}

func TestNewPacketDispatcherRejectsIPSKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for IPS kind")
		}
	}()
	newPD(IPSWired, 4)
}

func TestNewStackDispatcherRejectsLockingKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Locking kind")
		}
	}()
	newSD(MRU, 4, 4)
}

func TestFCFSPicksSomeIdle(t *testing.T) {
	d := newPD(FCFS, 4)
	idle := []int{2, 3}
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		got := d.PickProcessor(pkt(0), idle)
		if !contains(idle, got) {
			t.Fatalf("PickProcessor = %d, not idle", got)
		}
		seen[got] = true
	}
	// Uniform choice must not cluster on one processor.
	if len(seen) != 2 {
		t.Fatalf("FCFS always picked the same processor: %v", seen)
	}
}

func TestFCFSQueueOrder(t *testing.T) {
	d := newPD(FCFS, 4)
	for i := 0; i < 3; i++ {
		d.Enqueue(pkt(i))
	}
	if d.Queued() != 3 {
		t.Fatalf("Queued = %d", d.Queued())
	}
	for i := 0; i < 3; i++ {
		p, ok := d.Dispatch(0)
		if !ok || p.Stream != i {
			t.Fatalf("Dispatch %d = %+v, %v", i, p, ok)
		}
	}
	if _, ok := d.Dispatch(0); ok {
		t.Fatal("empty dispatch returned a packet")
	}
}

func TestMRUPrefersAffinityProcessor(t *testing.T) {
	d := newPD(MRU, 4)
	d.RanOn(7, 2)
	if got := d.PickProcessor(pkt(7), []int{0, 2, 3}); got != 2 {
		t.Fatalf("PickProcessor = %d, want MRU 2", got)
	}
	// MRU processor busy: fall back to some idle one (work conserving).
	if got := d.PickProcessor(pkt(7), []int{0, 3}); !contains([]int{0, 3}, got) {
		t.Fatalf("fallback PickProcessor = %d, not idle", got)
	}
	// Unknown entity: any idle.
	if got := d.PickProcessor(pkt(9), []int{3}); got != 3 {
		t.Fatalf("unknown-entity PickProcessor = %d, want 3", got)
	}
}

func TestMRUDispatchPrefersAffineQueuedPacket(t *testing.T) {
	d := NewPacketDispatcherFull(MRU, 4, des.NewRNG(1), 4, HashConfig{}, StealConfig{})
	d.RanOn(1, 1)
	d.RanOn(2, 2)
	d.Enqueue(pkt(1))
	d.Enqueue(pkt(2))
	p, ok := d.Dispatch(2)
	if !ok || p.Entity != 2 {
		t.Fatalf("Dispatch(2) = %+v, want entity 2", p)
	}
	// Head fallback when nothing affine.
	p, ok = d.Dispatch(3)
	if !ok || p.Entity != 1 {
		t.Fatalf("Dispatch(3) = %+v, want head entity 1", p)
	}
}

func TestMRUDispatchBoundedLookahead(t *testing.T) {
	// With the default lookahead of 1, only the head is examined: an
	// affine packet deeper in the queue does not jump ahead.
	d := newPD(MRU, 4)
	d.RanOn(1, 1)
	d.RanOn(2, 2)
	d.Enqueue(pkt(1))
	d.Enqueue(pkt(2))
	p, ok := d.Dispatch(2)
	if !ok || p.Entity != 1 {
		t.Fatalf("Dispatch(2) = %+v, want FIFO head entity 1", p)
	}
}

func TestMRUDispatchUnknownEntityNotAffineToZero(t *testing.T) {
	d := newPD(MRU, 4)
	d.Enqueue(pkt(5)) // never ran anywhere
	d.Enqueue(pkt(6))
	p, _ := d.Dispatch(0)
	if p.Entity != 5 {
		t.Fatalf("Dispatch(0) = %+v, want FIFO head", p)
	}
}

func TestWiredStreamsStickToHome(t *testing.T) {
	d := newPD(WiredStreams, 2)
	// First two entities get homes 0 and 1 round-robin.
	if got := d.PickProcessor(pkt(10), []int{0, 1}); got != 0 {
		t.Fatalf("entity 10 home = %d, want 0", got)
	}
	if got := d.PickProcessor(pkt(11), []int{0, 1}); got != 1 {
		t.Fatalf("entity 11 home = %d, want 1", got)
	}
	// Home busy: wired streams wait even with idle processors.
	if got := d.PickProcessor(pkt(10), []int{1}); got != -1 {
		t.Fatalf("wired stream placed on foreign processor %d", got)
	}
	d.Enqueue(pkt(10))
	if _, ok := d.Dispatch(1); ok {
		t.Fatal("processor 1 stole a wired packet")
	}
	p, ok := d.Dispatch(0)
	if !ok || p.Entity != 10 {
		t.Fatalf("home dispatch = %+v, %v", p, ok)
	}
}

func TestThreadPoolsStealWhenIdle(t *testing.T) {
	d := newPD(ThreadPools, 2)
	// Entity 10 homed at 0.
	d.PickProcessor(pkt(10), []int{0, 1})
	d.Enqueue(pkt(10))
	d.Enqueue(pkt(10))
	// Processor 1 has an empty pool: it steals from pool 0.
	p, ok := d.Dispatch(1)
	if !ok || p.Entity != 10 {
		t.Fatalf("steal = %+v, %v", p, ok)
	}
	// Stealing migrates the home: next placement prefers processor 1.
	d.RanOn(10, 1)
	if got := d.PickProcessor(pkt(10), []int{0, 1}); got != 1 {
		t.Fatalf("post-steal home = %d, want 1", got)
	}
}

func TestThreadPoolsPlaceOnAnyIdleWhenHomeBusy(t *testing.T) {
	d := newPD(ThreadPools, 2)
	d.PickProcessor(pkt(10), []int{0, 1}) // home 0
	if got := d.PickProcessor(pkt(10), []int{1}); got != 1 {
		t.Fatalf("pools with idle proc returned %d, want 1", got)
	}
}

func TestWiredStacksRoundRobinWiring(t *testing.T) {
	d := newSD(IPSWired, 5, 2).(*wiredStacks)
	want := []int{0, 1, 0, 1, 0}
	for s, w := range want {
		if d.PreferredProc(s) != w {
			t.Fatalf("stack %d wired to %d, want %d", s, d.PreferredProc(s), w)
		}
	}
}

func TestWiredStacksPlacement(t *testing.T) {
	d := newSD(IPSWired, 4, 2)
	if got := d.PickProcessor(1, []int{0, 1}); got != 1 {
		t.Fatalf("stack 1 placed on %d, want 1", got)
	}
	if got := d.PickProcessor(1, []int{0}); got != -1 {
		t.Fatalf("wired stack placed on foreign processor %d", got)
	}
	d.EnqueueStack(1)
	d.EnqueueStack(3)
	if n := queuedStacks(d); n != 2 {
		t.Fatalf("%d queued stacks, want 2", n)
	}
	if got := d.DispatchStack(0); got != -1 {
		t.Fatalf("processor 0 got foreign stack %d", got)
	}
	if got := d.DispatchStack(1); got != 1 {
		t.Fatalf("DispatchStack(1) = %d, want 1", got)
	}
	if got := d.DispatchStack(1); got != 3 {
		t.Fatalf("DispatchStack(1) = %d, want 3", got)
	}
}

func TestMRUStacksPreferAffinity(t *testing.T) {
	d := newSD(IPSMRU, 4, 2)
	d.RanOn(2, 1)
	if got := d.PickProcessor(2, []int{0, 1}); got != 1 {
		t.Fatalf("PickProcessor = %d, want 1", got)
	}
	if got := d.PickProcessor(2, []int{0}); got != 0 {
		t.Fatalf("busy-MRU fallback = %d, want 0", got)
	}
	d.EnqueueStack(0) // never ran
	d.EnqueueStack(2) // affine to 1
	// Default lookahead 1: only the head is examined, FIFO order holds.
	if got := d.DispatchStack(1); got != 0 {
		t.Fatalf("DispatchStack(1) = %d, want FIFO head 0", got)
	}
	if got := d.DispatchStack(1); got != 2 {
		t.Fatalf("DispatchStack(1) = %d, want 2", got)
	}
	if got := d.DispatchStack(1); got != -1 {
		t.Fatalf("empty DispatchStack = %d, want -1", got)
	}
}

func TestMRUStacksLookaheadFindsAffineStack(t *testing.T) {
	d := NewStackDispatcherLookahead(IPSMRU, 4, 2, des.NewRNG(1), 4)
	d.RanOn(2, 1)
	d.EnqueueStack(0)
	d.EnqueueStack(2)
	if got := d.DispatchStack(1); got != 2 {
		t.Fatalf("DispatchStack(1) = %d, want affine stack 2", got)
	}
}

func TestRandomStacksBaseline(t *testing.T) {
	d := newSD(IPSRandom, 4, 2)
	// Placement is uniform over the idle set — never outside it.
	idle := []int{0, 1}
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		got := d.PickProcessor(2, idle)
		if !contains(idle, got) {
			t.Fatalf("PickProcessor = %d, not idle", got)
		}
		seen[got] = true
	}
	if len(seen) != 2 {
		t.Fatal("random placement clustered on one processor")
	}
	// FIFO stack dispatch with no affinity memory.
	d.RanOn(3, 1) // must be a no-op
	d.EnqueueStack(3)
	d.EnqueueStack(1)
	if n := queuedStacks(d); n != 2 {
		t.Fatalf("%d queued stacks, want 2", n)
	}
	if got := d.DispatchStack(0); got != 3 {
		t.Fatalf("DispatchStack = %d, want FIFO head 3", got)
	}
	if got := d.DispatchStack(1); got != 1 {
		t.Fatalf("DispatchStack = %d, want 1", got)
	}
	if got := d.DispatchStack(0); got != -1 {
		t.Fatalf("empty DispatchStack = %d", got)
	}
}

func TestDispatcherCountersAndNoOps(t *testing.T) {
	f := newPD(FCFS, 2)
	f.RanOn(1, 1) // no-op for FCFS
	if f.Queued() != 0 {
		t.Fatal("fresh FCFS queue not empty")
	}
	m := newPD(MRU, 2)
	m.Enqueue(pkt(1))
	if m.Queued() != 1 {
		t.Fatalf("MRU Queued = %d", m.Queued())
	}
	w := newSD(IPSMRU, 4, 2)
	w.EnqueueStack(1)
	if n := queuedStacks(w); n != 1 {
		t.Fatalf("IPSMRU holds %d queued stacks, want 1", n)
	}
	lw := NewStackDispatcherLookahead(IPSWired, 2, 2, des.NewRNG(1), 0) // lookahead clamps to 1
	if lw == nil {
		t.Fatal("nil dispatcher")
	}
}
