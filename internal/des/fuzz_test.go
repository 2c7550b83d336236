package des

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// FuzzEventOrdering drives the simulator through arbitrary interleavings
// of one-shot events and timers decoded from the fuzz input: schedule,
// step and run, create a timer, arm an idle one, and — inside a timer's
// handler — re-arm it, arm another idle timer, or return without
// re-arming. It checks the engine's core guarantees after every
// operation:
//
//   - everything fires in nondecreasing time, ties broken by scheduling
//     order (the (time, seq) total order the runs' determinism rests
//     on), one-shot events and timer firings alike
//   - nothing fires twice, nothing is lost
//   - Pending() counts the one-shot events and armed timers, not the
//     timer whose handler is running until it is armed again
//   - arming a pending timer panics and changes nothing
//   - the event queue keeps its heap invariant and clears the slots it
//     vacates, and the timer tree holds every armed timer's key and
//     the least key of each subtree
//   - pooled nodes stay consistent: recycled nodes hold no handler
//     state, and after the drain the free list covers every node the
//     peak count of pending one-shot events needed
func FuzzEventOrdering(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 20, 0, 5, 2, 2, 2})
	f.Add([]byte{0, 10, 0, 10, 0, 10, 1, 1, 3, 255})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1, 1, 2, 2, 3, 40, 0, 7, 2})
	f.Add([]byte{4, 0, 4, 0, 4, 0, 5, 9, 5, 6, 5, 0, 0, 3, 2, 0, 3, 30, 5, 6, 3, 200})
	f.Add([]byte{4, 0, 4, 0, 5, 1, 5, 2, 1, 0, 5, 1, 2, 0, 2, 0, 3, 0, 3, 255})
	seed := make([]byte, 0, 96)
	for i := 0; i < 32; i++ {
		seed = append(seed, byte(i%8), byte(i*37), byte(i))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSimulator()

		// tracked is one scheduled firing; seq mirrors the engine's
		// tie-break counter, which ScheduleArg and Arm share: the n-th
		// firing scheduled carries seq n-1. A timer firing's act picks
		// what its handler does.
		type tracked struct {
			at    Time
			seq   uint64
			act   byte
			fired bool
		}
		// fuzzTimer is one timer and its pending firing, if any.
		type fuzzTimer struct {
			t   *Timer
			cur *tracked
		}
		var all []*tracked
		var timers []*fuzzTimer
		track := func(at Time, act byte) *tracked {
			tr := &tracked{at: at, seq: uint64(len(all)), act: act}
			all = append(all, tr)
			return tr
		}

		var lastAt Time
		var lastSeq uint64
		fired, peak := 0, 0
		checkPending := func() {
			t.Helper()
			if want := len(all) - fired; s.Pending() != want {
				t.Fatalf("Pending() = %d, model says %d", s.Pending(), want)
			}
		}
		observe := func(tr *tracked) {
			t.Helper()
			if tr.fired {
				t.Fatalf("firing (at=%v seq=%d) fired twice", tr.at, tr.seq)
			}
			tr.fired = true
			fired++
			if s.Now() != tr.at {
				t.Fatalf("fired at clock %v, scheduled for %v", s.Now(), tr.at)
			}
			if tr.at < lastAt || (tr.at == lastAt && tr.seq < lastSeq) {
				t.Fatalf("order violation: (%v, %d) after (%v, %d)",
					tr.at, tr.seq, lastAt, lastSeq)
			}
			lastAt, lastSeq = tr.at, tr.seq
			checkPending()
		}
		fire := func(arg any) { observe(arg.(*tracked)) }

		// arm arms ft after delay with act as its next firing's action,
		// or, if ft is pending, checks that arming it panics and leaves
		// the model as it was.
		arm := func(ft *fuzzTimer, delay Time, act byte) {
			t.Helper()
			if ft.cur != nil {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("arming a pending timer did not panic")
						}
					}()
					s.Arm(ft.t, delay)
				}()
				checkPending()
				return
			}
			ft.cur = track(s.Now()+delay, act)
			s.Arm(ft.t, delay)
			checkPending()
		}

		// Handlers arm at most budget more times, so every run drains.
		budget := 4*len(data) + 8
		onTimer := func(arg any) {
			ft := arg.(*fuzzTimer)
			tr := ft.cur
			ft.cur = nil
			observe(tr)
			if budget == 0 {
				return
			}
			budget--
			next := tr.act*37 + 11
			switch d := Time(tr.act >> 3); tr.act % 4 {
			case 0: // return without re-arming
			case 1: // re-arm from its own handler
				arm(ft, d, next)
			case 2: // arm the next timer after this one, pending or idle
				arm(timers[(slices.Index(timers, ft)+1)%len(timers)], d, next)
			case 3: // re-arm, then schedule a one-shot at the same delay
				arm(ft, d, next)
				s.ScheduleArg(d, fire, track(s.Now()+d, 0))
				peak = max(peak, s.events.Len())
			}
		}

		check := func() {
			checkQueue(t, &s.events)
			for _, ev := range s.free {
				if ev.fn != nil || ev.arg != nil {
					t.Fatal("free node retains handler state")
				}
			}
			checkTree(t, s)
			for _, ft := range timers {
				n := s.tree[int(s.width)+int(ft.t.leaf)]
				if ft.t.armed != (ft.cur != nil) {
					t.Fatalf("timer %d armed = %v, model says %v", ft.t.leaf, ft.t.armed, ft.cur != nil)
				}
				want := node{idleKey, idleKey, ft.t.leaf}
				if ft.cur != nil {
					want = node{math.Float64bits(float64(ft.cur.at)), ft.cur.seq, ft.t.leaf}
				}
				if n != want {
					t.Fatalf("timer %d leaf holds (%#x, %d), model says (%#x, %d)", ft.t.leaf, n.at, n.tie, want.at, want.tie)
				}
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, p := data[i]%8, data[i+1]
			switch op {
			case 0: // schedule p time units out
				s.ScheduleArg(Time(p), fire, track(s.Now()+Time(p), 0))
			case 1: // schedule at the current instant, behind any ties
				s.ScheduleArgAt(s.Now(), fire, track(s.Now(), 0))
			case 2: // fire one event
				s.Step()
			case 3: // run out a horizon p units long
				s.RunUntil(s.Now() + Time(p))
			case 4, 6: // create a timer, up to a bound
				if len(timers) < 40 {
					ft := &fuzzTimer{}
					ft.t = s.NewTimer(onTimer, ft)
					timers = append(timers, ft)
				}
			case 5, 7: // arm a timer from outside any handler
				if len(timers) > 0 {
					arm(timers[int(p)%len(timers)], Time(p>>2), p)
				}
			}
			peak = max(peak, s.events.Len())
			check()
			checkPending()
			if got := fired; got != int(s.Fired()) {
				t.Fatalf("Fired() = %d, observed %d handler calls", s.Fired(), got)
			}
		}

		// Drain: everything still pending must fire, in order.
		checkPending()
		s.Run()
		for _, tr := range all {
			if !tr.fired {
				t.Fatalf("firing (at=%v seq=%d) lost", tr.at, tr.seq)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("%d firings pending after Run", s.Pending())
		}
		check()
		// Every node ever allocated is now on the free list.
		if len(s.free) < peak {
			t.Fatalf("pool holds %d nodes, high-water mark was %d", len(s.free), peak)
		}
	})
}

// checkTree fails t unless every inner node of s's timer tree holds the
// lesser of its two children.
func checkTree(t *testing.T, s *Simulator) {
	t.Helper()
	for i := int(s.width) - 1; i >= 1; i-- {
		a, b := s.tree[2*i], s.tree[2*i+1]
		if before(b.at, b.tie, a.at, a.tie) != 0 {
			a = b
		}
		if s.tree[i].at != a.at || s.tree[i].tie != a.tie {
			t.Fatalf("tree node %d holds (%#x, %d), its children's least is (%#x, %d)",
				i, s.tree[i].at, s.tree[i].tie, a.at, a.tie)
		}
	}
}

// checkQueue fails t unless q is a 4-ary min-heap by (at, tie) whose
// vacated slots beyond its length hold no value.
func checkQueue[T comparable](t *testing.T, q *Queue[T]) {
	t.Helper()
	h := q.h
	for i := 1; i < len(h); i++ {
		c, p := h[i], h[(i-1)>>2]
		if before(c.at, c.tie, p.at, p.tie) != 0 {
			t.Fatalf("heap violation at %d: child (%#x,%#x) < parent (%#x,%#x)",
				i, c.at, c.tie, p.at, p.tie)
		}
	}
	for i, e := range h[len(h):cap(h)] {
		if e != (entry[T]{}) {
			t.Fatalf("vacated slot %d still holds an entry", len(h)+i)
		}
	}
}

// FuzzEventQueue interleaves pushes of fuzz-chosen (at, tie) keys with
// pops and checks every pop against a reference: the pending entries
// stably sorted by (at, tie). The keys come from small palettes so that
// collisions are common: same-instant ties, −0 beside +0, +Inf, tie
// words with and without the top bit (the live clock's unkeyed mark).
// Equal keys may pop in either order, so a pop is checked by its key,
// and its value must be a pending entry carrying that key. At the end
// everything pushed has popped exactly once.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 5, 1, 2, 0x85, 2, 2, 5, 1, 9, 4, 0, 0, 0, 1, 8, 8, 1, 7, 0x80})
	seed := make([]byte, 0, 120)
	for i := 0; i < 40; i++ {
		seed = append(seed, byte(i%5), byte(i*7), byte(i*29))
	}
	f.Add(seed)

	times := []Time{0, Time(math.Copysign(0, -1)), 1, 1, 2.5, 1e9,
		Time(math.Inf(1)), Time(math.SmallestNonzeroFloat64), math.MaxFloat64}
	ties := []uint64{0, 1, 2, 1<<63 - 1, 1 << 63, 1<<63 | 1, 1<<63 | 2, math.MaxUint64}
	type rec struct {
		at     Time
		tie    uint64
		popped bool
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue[*rec]
		var all, pending []*rec
		pop := func() {
			sort.SliceStable(pending, func(i, j int) bool {
				a, b := pending[i], pending[j]
				return a.at < b.at || (a.at == b.at && a.tie < b.tie)
			})
			want := pending[0]
			at, r := q.Pop()
			// A popped −0 reads back as +0.
			if math.Float64bits(float64(at)) != math.Float64bits(float64(want.at)+0) || r.at != want.at || r.tie != want.tie {
				t.Fatalf("popped (%v, %#x) at %v, want key (%v, %#x)", r.at, r.tie, at, want.at, want.tie)
			}
			if r.popped {
				t.Fatalf("(%v, %#x) popped twice", r.at, r.tie)
			}
			r.popped = true
			i := slices.Index(pending, r)
			if i < 0 {
				t.Fatalf("popped (%v, %#x), which is not pending", r.at, r.tie)
			}
			pending = slices.Delete(pending, i, i+1)
		}
		for i := 0; i+2 < len(data); i += 3 {
			if data[i]%5 == 0 && len(pending) > 0 {
				pop()
			} else {
				r := &rec{at: times[int(data[i+1])%len(times)], tie: ties[int(data[i+2])%len(ties)]}
				if data[i+2]&0x80 == 0 {
					// A tie word chosen for its low bits, below the top bit.
					r.tie = uint64(data[i+2])
				}
				q.Push(r.at, r.tie, r)
				all = append(all, r)
				pending = append(pending, r)
			}
			if q.Len() != len(pending) {
				t.Fatalf("Len() = %d, model says %d", q.Len(), len(pending))
			}
			checkQueue(t, &q)
		}
		for len(pending) > 0 {
			pop()
			checkQueue(t, &q)
		}
		for _, r := range all {
			if !r.popped {
				t.Fatalf("(%v, %#x) lost", r.at, r.tie)
			}
		}
	})
}
