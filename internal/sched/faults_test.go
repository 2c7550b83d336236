package sched

import (
	"testing"

	"affinity/internal/des"
)

// Degradation-path tests: dispatcher behavior across ProcDown/ProcUp
// transitions, plus the Kind range-check and affinity-accounting
// regressions fixed alongside the fault layer.

// ForLocking once accepted any Kind ≤ WiredStreams, including negative
// values, so a corrupt Kind(-3) passed Locking-paradigm validation.
func TestKindParadigmRangeChecks(t *testing.T) {
	for _, k := range []Kind{Kind(-1), Kind(-3), kindCount, Kind(99)} {
		if k.ForLocking() || k.ForIPS() {
			t.Errorf("out-of-range Kind(%d) passed a paradigm check", int(k))
		}
	}
}

// Every placement and every successful dispatch is exactly one
// AffinityStats decision — no double counts, no missed ones. An empty
// dispatch is not a decision.
func TestMRUAffinityStatsOneNotePerDecision(t *testing.T) {
	d := NewPacketDispatcherFull(MRU, 4, des.NewRNG(1), 4, HashConfig{}, StealConfig{})
	d.RanOn(1, 1)
	d.RanOn(2, 2)
	decisions, wantHits := 0, 0

	d.PickProcessor(pkt(1), []int{0, 1}) // affine, idle: hit
	decisions, wantHits = decisions+1, wantHits+1
	d.PickProcessor(pkt(1), []int{0, 3}) // affine processor busy: miss
	decisions++
	d.PickProcessor(pkt(9), []int{0}) // unknown entity: miss
	decisions++

	d.Enqueue(pkt(1))
	d.Enqueue(pkt(2))
	d.Enqueue(pkt(3))
	if _, ok := d.Dispatch(2); ok { // lookahead finds affine entity 2
		decisions, wantHits = decisions+1, wantHits+1
	}
	if _, ok := d.Dispatch(1); ok { // head entity 1 is affine
		decisions, wantHits = decisions+1, wantHits+1
	}
	if _, ok := d.Dispatch(0); ok { // head entity 3, no affinity: miss
		decisions++
	}
	if _, ok := d.Dispatch(0); ok { // empty queue: no decision
		t.Fatal("empty dispatch returned a packet")
	}

	hits, total := d.AffinityStats()
	if int(total) != decisions || int(hits) != wantHits {
		t.Errorf("AffinityStats = (%d hits, %d total), want (%d, %d)",
			hits, total, wantHits, decisions)
	}
}

func TestDepthForReportsJoinQueue(t *testing.T) {
	f := newPD(FCFS, 2)
	m := newPD(MRU, 2)
	for i := 0; i < 3; i++ {
		f.Enqueue(pkt(i))
		m.Enqueue(pkt(i))
	}
	if f.DepthFor(pkt(9)) != 3 || m.DepthFor(pkt(9)) != 3 {
		t.Errorf("central-queue DepthFor = %d/%d, want 3/3",
			f.DepthFor(pkt(9)), m.DepthFor(pkt(9)))
	}
	w := newPD(WiredStreams, 2)
	w.PickProcessor(pkt(10), []int{0, 1}) // entity 10 homed on 0
	w.Enqueue(pkt(10))
	w.Enqueue(pkt(10))
	if w.DepthFor(pkt(10)) != 2 {
		t.Errorf("pool DepthFor(home) = %d, want 2", w.DepthFor(pkt(10)))
	}
	if w.DepthFor(pkt(11)) != 0 { // entity 11 homes on the empty pool 1
		t.Errorf("pool DepthFor(other) = %d, want 0", w.DepthFor(pkt(11)))
	}
}

func TestWiredStreamsProcDownRehomesAndFailsBack(t *testing.T) {
	d := newPD(WiredStreams, 2).(*pools)
	d.PickProcessor(pkt(10), []int{0, 1}) // entity 10 → home 0
	d.PickProcessor(pkt(11), []int{0, 1}) // entity 11 → home 1
	d.Enqueue(pkt(10))
	d.Enqueue(pkt(10))

	d.ProcDown(0)
	// Entity 10's queued packets follow it to the surviving processor.
	if _, ok := d.Dispatch(0); ok {
		t.Fatal("dead processor's pool still holds packets")
	}
	p, ok := d.Dispatch(1)
	if !ok || p.Entity != 10 {
		t.Fatalf("Dispatch(1) = %+v, %v, want re-homed entity 10", p, ok)
	}
	if _, ok := d.Dispatch(1); !ok {
		t.Fatal("second re-homed packet missing")
	}
	// New entities never home on the dead processor.
	if got := d.PickProcessor(pkt(12), []int{1}); got != 1 {
		t.Fatalf("new entity placed on %d, want surviving 1", got)
	}

	d.ProcUp(0)
	// Failback: entity 10 returns to its original home.
	if got := d.PickProcessor(pkt(10), []int{0, 1}); got != 0 {
		t.Fatalf("post-recovery home = %d, want original 0", got)
	}
}

func TestWiredStreamsFailbackMovesQueuedPackets(t *testing.T) {
	d := newPD(WiredStreams, 2).(*pools)
	d.PickProcessor(pkt(10), []int{0, 1}) // home 0
	d.ProcDown(0)
	d.Enqueue(pkt(10)) // queues on the fallback home (1)
	d.Enqueue(pkt(10))
	d.ProcUp(0)
	// Both packets must have been pulled back to pool 0, in order.
	if _, ok := d.Dispatch(1); ok {
		t.Fatal("fallback pool kept a failed-back packet")
	}
	for i := 0; i < 2; i++ {
		if p, ok := d.Dispatch(0); !ok || p.Entity != 10 {
			t.Fatalf("Dispatch(0) #%d = %+v, %v", i, p, ok)
		}
	}
}

func TestThreadPoolsProcDownRehomesWithoutFailback(t *testing.T) {
	d := newPD(ThreadPools, 2).(*pools)
	d.PickProcessor(pkt(10), []int{0, 1}) // home 0
	d.Enqueue(pkt(10))
	d.ProcDown(0)
	if p, ok := d.Dispatch(1); !ok || p.Entity != 10 {
		t.Fatalf("Dispatch(1) = %+v, %v, want re-homed packet", p, ok)
	}
	d.ProcUp(0)
	// ThreadPools does not force entities back — stealing re-balances —
	// so the home stays where the failure moved it.
	if got := d.PickProcessor(pkt(10), []int{0, 1}); got != 1 {
		t.Fatalf("ThreadPools home after recovery = %d, want 1", got)
	}
}

func TestMRUProcDownForgetsAffinity(t *testing.T) {
	m := newPD(MRU, 4)
	m.RanOn(1, 1)
	m.RanOn(2, 1)
	m.RanOn(3, 2)
	m.ProcDown(1)
	if m.PreferredProc(1) != -1 {
		t.Error("entity 1 affinity to the dead processor survived")
	}
	if m.PreferredProc(2) != -1 {
		t.Error("entity 2 affinity to the dead processor survived")
	}
	if m.PreferredProc(3) != 2 {
		t.Error("unrelated affinity was forgotten")
	}

	s := newSD(IPSMRU, 4, 4)
	s.RanOn(1, 1)
	s.RanOn(3, 2)
	s.ProcDown(1)
	if s.PreferredProc(1) != -1 {
		t.Error("stack 1 affinity to the dead processor survived")
	}
	if s.PreferredProc(3) != 2 {
		t.Error("unrelated stack affinity was forgotten")
	}
}

func TestWiredStacksProcDownRewiresAndRestores(t *testing.T) {
	d := newSD(IPSWired, 4, 2).(*wiredStacks)
	// Original wiring: 0→0, 1→1, 2→0, 3→1.
	d.EnqueueStack(0)
	d.EnqueueStack(2)
	d.ProcDown(0)
	if got := d.DispatchStack(0); got != -1 {
		t.Fatalf("dead processor dispatched stack %d", got)
	}
	// Stacks 0 and 2 re-wired to the survivor, queue order preserved.
	if got := d.DispatchStack(1); got != 0 {
		t.Fatalf("DispatchStack(1) = %d, want re-wired stack 0", got)
	}
	if got := d.DispatchStack(1); got != 2 {
		t.Fatalf("DispatchStack(1) = %d, want re-wired stack 2", got)
	}
	// A re-wired stack may now be placed on its new processor.
	if got := d.PickProcessor(0, []int{1}); got != 1 {
		t.Fatalf("re-wired PickProcessor = %d, want 1", got)
	}

	d.EnqueueStack(2) // ready again, queued on the survivor
	d.ProcUp(0)
	if d.PreferredProc(0) != 0 || d.PreferredProc(2) != 0 || d.PreferredProc(1) != 1 || d.PreferredProc(3) != 1 {
		t.Fatalf("post-recovery wiring = %v, want original", d.tab.cur)
	}
	// Stack 2's queued entry followed the failback.
	if got := d.DispatchStack(1); got != -1 {
		t.Fatalf("survivor kept failed-back stack %d", got)
	}
	if got := d.DispatchStack(0); got != 2 {
		t.Fatalf("DispatchStack(0) = %d, want failed-back stack 2", got)
	}
}

// With every processor down, queues must still accept work (packet
// conservation) and recovery must drain it.
func TestAllProcessorsDownThenRecovery(t *testing.T) {
	d := newPD(WiredStreams, 2).(*pools)
	d.PickProcessor(pkt(10), []int{0, 1})
	d.ProcDown(0)
	d.ProcDown(1)
	d.Enqueue(pkt(10))
	d.Enqueue(pkt(12)) // brand-new entity homed with no processor up
	if d.Queued() != 2 {
		t.Fatalf("Queued = %d, want 2", d.Queued())
	}
	d.ProcUp(0)
	d.ProcUp(1)
	got := 0
	for proc := 0; proc < 2; proc++ {
		for {
			if _, ok := d.Dispatch(proc); !ok {
				break
			}
			got++
		}
	}
	if got != 2 {
		t.Fatalf("recovered %d packets, want 2", got)
	}
}

// When the last live processor fails, the round-robin or hash can home
// queued work right back on it. That work must stay queued there and be
// served on recovery, not spin between queues or be dropped.
func TestLastProcessorDownKeepsQueuedWork(t *testing.T) {
	for _, k := range []Kind{WiredStreams, ThreadPools, RSS, FlowDirector} {
		d := newPD(k, 1)
		d.PickProcessor(pkt(10), []int{0})
		for _, s := range []int{10, 11, 10} {
			d.Enqueue(pkt(s))
		}
		d.ProcDown(0)
		if d.Queued() != 3 {
			t.Fatalf("%v: Queued = %d after the last processor failed, want 3", k, d.Queued())
		}
		d.ProcUp(0)
		for i, want := range []int{10, 11, 10} {
			if p, ok := d.Dispatch(0); !ok || p.Stream != want {
				t.Fatalf("%v: dispatch %d = %+v, %v; want stream %d", k, i, p, ok, want)
			}
		}
	}
	d := newSD(IPSWired, 2, 1)
	d.EnqueueStack(1)
	d.EnqueueStack(0)
	d.ProcDown(0)
	if n := queuedStacks(d); n != 2 {
		t.Fatalf("IPS-Wired: %d ready stacks after the last processor failed, want 2", n)
	}
	d.ProcUp(0)
	for _, want := range []int{1, 0} {
		if got := d.DispatchStack(0); got != want {
			t.Fatalf("IPS-Wired: DispatchStack = %d, want %d", got, want)
		}
	}
}

// queuedItem is one unit of queued work in the all-down tests: a packet
// (entity, seq) or, under IPS-Wired, a ready stack (seq 0).
type queuedItem struct{ entity, seq int }

const allDownProcs, allDownEntities = 3, 6

// allDown builds k's dispatcher on 3 processors and takes processor 2,
// then 0, then 1 down, queuing a round of work for its 6 entities (IPS-
// Wired: 2 of its 6 stacks) before each failure. It returns the work
// queued, and take, which dispatches the next item on a processor.
func allDown(k Kind) (Placement, map[queuedItem]bool, func(proc int) (queuedItem, bool)) {
	var d Placement
	var add func(round, seq int) []queuedItem
	var take func(proc int) (queuedItem, bool)
	if k == IPSWired {
		sd := newSD(k, allDownEntities, allDownProcs)
		d = sd
		add = func(round, _ int) []queuedItem {
			s := []queuedItem{{2 * round, 0}, {2*round + 1, 0}}
			sd.EnqueueStack(s[0].entity)
			sd.EnqueueStack(s[1].entity)
			return s
		}
		take = func(proc int) (queuedItem, bool) {
			s := sd.DispatchStack(proc)
			return queuedItem{s, 0}, s >= 0
		}
	} else {
		pd := idPD(k, allDownProcs, 0)
		d = pd
		add = func(_, seq int) []queuedItem {
			var queued []queuedItem
			for e := range allDownEntities {
				pd.Enqueue(Packet{Stream: e, Entity: e, Seq: uint64(seq + e)})
				queued = append(queued, queuedItem{e, seq + e})
			}
			return queued
		}
		take = func(proc int) (queuedItem, bool) {
			p, ok := pd.Dispatch(proc)
			return queuedItem{p.Entity, int(p.Seq)}, ok
		}
	}
	want := map[queuedItem]bool{}
	for round, proc := range []int{2, 0, 1} {
		for _, it := range add(round, round*allDownEntities) {
			want[it] = true
		}
		d.ProcDown(proc)
	}
	return d, want, take
}

// drainOnce dispatches everything on each of procs in turn: every
// queued item must come out exactly once, in per-entity FIFO order.
func drainOnce(t *testing.T, procs []int, want map[queuedItem]bool, take func(int) (queuedItem, bool)) {
	t.Helper()
	lastSeq := map[int]int{}
	for _, proc := range procs {
		for {
			it, ok := take(proc)
			if !ok {
				break
			}
			if !want[it] {
				t.Fatalf("dispatched %+v on %d, which is not queued (or twice)", it, proc)
			}
			delete(want, it)
			if s, seen := lastSeq[it.entity]; seen && it.seq < s {
				t.Errorf("entity %d: seq %d dispatched after %d", it.entity, it.seq, s)
			}
			lastSeq[it.entity] = it.seq
		}
	}
	if len(want) != 0 {
		t.Errorf("%d queued items never dispatched on %v: %v", len(want), procs, want)
	}
}

// When the last live processor fails, every static-home policy leaves
// its slots and queued work on it: once all are down, each entity's
// preferred processor is the one that failed last. After all recover,
// every queued item dispatches exactly once, in per-entity FIFO order.
func TestLastProcessorRuleStaticHomes(t *testing.T) {
	for _, k := range []Kind{WiredStreams, ThreadPools, RSS, FlowDirector, IPSWired} {
		t.Run(k.String(), func(t *testing.T) {
			d, want, take := allDown(k)
			const last = 1
			for e := range allDownEntities {
				if got := d.PreferredProc(e); got != last {
					t.Errorf("entity %d prefers %d with every processor down, want %d (failed last)", e, got, last)
				}
			}
			for proc := range allDownProcs {
				d.ProcUp(proc)
			}
			drainOnce(t, []int{0, 1, 2}, want, take)
		})
	}
}

// The first processor back after all failed takes every slot and all
// queued work, even when it is not the one that failed last: nothing
// waits on a processor that is still down while another is up.
func TestFirstRecoveryAdoptsStrandedWork(t *testing.T) {
	for _, k := range []Kind{WiredStreams, ThreadPools, RSS, FlowDirector, IPSWired} {
		t.Run(k.String(), func(t *testing.T) {
			d, want, take := allDown(k)
			d.ProcUp(0) // failed second; processor 1 failed last
			for e := range allDownEntities {
				if got := d.PreferredProc(e); got != 0 {
					t.Errorf("entity %d prefers %d, want 0, the only processor up", e, got)
				}
			}
			drainOnce(t, []int{0}, want, take)
		})
	}
}

// Flow Director's overrides follow the same rule as its buckets: a flow
// that rebalancing moved onto the processor that failed last goes to the
// first processor back, with its queued packets.
func TestFirstRecoveryAdoptsFlowDirectorOverrides(t *testing.T) {
	d := idPD(FlowDirector, 3, 1)
	d.Enqueue(Packet{Entity: 0, Seq: 1}) // entity 0's home queue reaches the trigger
	if got := d.PickProcessor(Packet{Entity: 0, Seq: 2}, []int{1}); got != 1 {
		t.Fatalf("rebalancing placed entity 0 on %d, want 1", got)
	}
	d.Enqueue(Packet{Entity: 0, Seq: 2})
	for _, proc := range []int{2, 0, 1} {
		d.ProcDown(proc)
	}
	d.ProcUp(0)
	if got := d.PreferredProc(0); got != 0 {
		t.Fatalf("entity 0 prefers %d, want 0, the only processor up", got)
	}
	seen := map[uint64]bool{}
	for {
		p, ok := d.Dispatch(0)
		if !ok {
			break
		}
		if seen[p.Seq] {
			t.Fatalf("seq %d dispatched twice", p.Seq)
		}
		seen[p.Seq] = true
	}
	if !seen[1] || !seen[2] || d.Queued() != 0 {
		t.Errorf("dispatched %v on processor 0, %d still queued; want seqs 1 and 2, none queued", seen, d.Queued())
	}
}
