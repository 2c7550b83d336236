package sched

import (
	"math"
	"reflect"
	"testing"

	"affinity/internal/des"
)

func stealPD(sp StealParams, now func() des.Time) *steal {
	return newSteal(des.NewRNG(1), 4, StealConfig{StealParams: sp, Now: now})
}

func agedPkt(stream int, arrive des.Time) Packet {
	return Packet{Stream: stream, Entity: stream, Arrive: arrive}
}

// The steal gate's two conditions compose with AND: a cold processor
// may take queued work only once the backlog reaches DepthThreshold
// and the packet has aged past Penalty µs.
func TestStealGateDepthAndAge(t *testing.T) {
	clock := des.Time(1000)
	now := func() des.Time { return clock }
	sp := StealParams{Penalty: 100, DepthThreshold: 2, ColdBias: 1}

	// Depth gate: one well-aged packet is still below threshold 2, so
	// the cold processor must not steal it no matter how old it is.
	d := stealPD(sp, now)
	d.RanOn(0, 0) // stream 0 warm on processor 0
	d.Enqueue(agedPkt(0, 0))
	if _, ok := d.Dispatch(1); ok {
		t.Fatal("stole below the depth threshold")
	}

	// Age gate: backlog deep enough, but the head is too young.
	d = stealPD(sp, now)
	d.RanOn(0, 0)
	d.Enqueue(agedPkt(0, 990))
	d.Enqueue(agedPkt(0, 995))
	clock = 1040 // head age 50 < penalty 100
	if _, ok := d.Dispatch(1); ok {
		t.Fatal("stole a packet younger than the penalty")
	}
	// Old enough AND deep enough: the steal goes through.
	clock = 1090 // head age exactly 100
	if pk, ok := d.Dispatch(1); !ok || pk.Arrive != 990 {
		t.Fatalf("aged head not stolen: %+v ok=%v", pk, ok)
	}
	// The warm processor never needs the gate, young head or not.
	if pk, ok := d.Dispatch(0); !ok || pk.Arrive != 995 {
		t.Fatalf("warm processor refused its own work: %+v ok=%v", pk, ok)
	}
}

// A refused head must not strand the rest of the queue: the cold
// processor skips it and serves the oldest packet that is warm here or
// warm nowhere.
func TestStealRefusalServesAroundHead(t *testing.T) {
	d := stealPD(StealParams{Penalty: math.MaxFloat64, DepthThreshold: 0, ColdBias: 1},
		func() des.Time { return 0 })
	d.RanOn(0, 0) // head's stream warm on 0
	d.RanOn(1, 1) // second packet warm on 1
	d.Enqueue(agedPkt(0, 0))
	d.Enqueue(agedPkt(1, 0))
	d.Enqueue(agedPkt(2, 0)) // cold everywhere

	// Warm-preference scan finds stream 1's packet for processor 1.
	if pk, ok := d.Dispatch(1); !ok || pk.Stream != 1 {
		t.Fatalf("processor 1 got %+v ok=%v, want its warm stream 1", pk, ok)
	}
	// Head (warm on 0) is unstealable; the rescue scan hands the cold
	// stream 2 packet over instead of idling processor 1.
	if pk, ok := d.Dispatch(1); !ok || pk.Stream != 2 {
		t.Fatalf("processor 1 got %+v ok=%v, want unowned stream 2", pk, ok)
	}
	// Only work warm on another processor remains: stay idle.
	if _, ok := d.Dispatch(1); ok {
		t.Fatal("processor 1 stole the protected head")
	}
	if pk, ok := d.Dispatch(0); !ok || pk.Stream != 0 {
		t.Fatalf("head not delivered to its warm processor: %+v ok=%v", pk, ok)
	}
	if d.Queued() != 0 {
		t.Fatalf("%d packets stranded", d.Queued())
	}
}

// Pinned() selects the Wired-Streams dispatcher exactly at +Inf.
func TestStealPinnedPredicate(t *testing.T) {
	if (StealParams{Penalty: math.MaxFloat64}).Pinned() {
		t.Error("MaxFloat64 must stay work-conserving — only +Inf pins")
	}
	if !(StealParams{Penalty: math.Inf(1)}).Pinned() {
		t.Error("+Inf must pin")
	}
	if (StealParams{}).Pinned() {
		t.Error("zero value must not pin")
	}
}

// The +Inf corner is not a copy of Wired-Streams but the same
// dispatcher: one implementation, so the corner cannot drift from it.
func TestStealPinnedIsWiredStreams(t *testing.T) {
	pinned := NewPacketDispatcherFull(AffinitySteal, 4, des.NewRNG(1), 4, HashConfig{},
		StealConfig{StealParams: StealParams{Penalty: math.Inf(1), DepthThreshold: 3, ColdBias: 0.5}})
	wired := newPD(WiredStreams, 4)
	if reflect.TypeOf(pinned) != reflect.TypeOf(wired) {
		t.Fatalf("pinned AffinitySteal is %T, WiredStreams is %T", pinned, wired)
	}
	if pinned.(*pools).stealing {
		t.Fatal("pinned AffinitySteal steals like ThreadPools")
	}
}

// A finite non-zero penalty needs a clock; corners do not. The
// constructor enforces this instead of letting stealAllowed nil-panic
// mid-run.
func TestStealNeedsClockOnlyForFinitePenalty(t *testing.T) {
	build := func(sp StealParams) {
		NewPacketDispatcherFull(AffinitySteal, 2, des.NewRNG(1), 4, HashConfig{}, StealConfig{StealParams: sp})
	}
	for _, sp := range []StealParams{{}, {ColdBias: 1}, {Penalty: math.Inf(1)}} {
		build(sp) // must not panic
	}
	defer func() {
		if recover() == nil {
			t.Error("finite non-zero Penalty without a clock did not panic")
		}
	}()
	build(StealParams{Penalty: 1})
}

// Fractional ColdBias prefers the warm processor with that probability
// at placement: over many trials both branches must occur, and the
// bias-1 and bias-0 endpoints must be degenerate (the corner RNG-draw
// parity depends on it).
func TestStealColdBiasIsProbabilistic(t *testing.T) {
	count := func(bias float64) int {
		d := stealPD(StealParams{ColdBias: bias}, nil)
		d.RanOn(0, 1)
		hits := 0
		for i := 0; i < 500; i++ {
			if d.PickProcessor(pkt(0), []int{0, 1}) == 1 {
				hits++
			}
		}
		return hits
	}
	if got := count(1); got != 500 {
		t.Errorf("bias 1: %d/500 warm placements, want all", got)
	}
	if got := count(0.5); got < 300 || got > 450 {
		// Warm hits ≈ 250 (biased) + ~125 (random fallback picks it too).
		t.Errorf("bias 0.5: %d/500 warm placements, want a strict mix", got)
	}
	// Bias 0 never consults warmth, so ~half land warm by chance.
	if got := count(0); got < 175 || got > 325 {
		t.Errorf("bias 0: %d/500 warm placements, want ≈ half by chance", got)
	}
}
