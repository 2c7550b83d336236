package des

import (
	"testing"
)

// FuzzEventOrdering drives the simulator through arbitrary
// schedule/step/run interleavings decoded from the fuzz input and checks
// the engine's core guarantees after every operation:
//
//   - events fire in nondecreasing time, ties broken by scheduling
//     order (the (time, seq) total order the runs' determinism rests on)
//   - no event fires twice, none is lost
//   - the 4-ary heap keeps its ordering invariant
//   - pooled nodes stay consistent: recycled nodes hold no handler
//     state, and after the drain the free list covers every node the
//     peak pending count needed
func FuzzEventOrdering(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 20, 0, 5, 2, 2, 2})
	f.Add([]byte{0, 10, 0, 10, 0, 10, 1, 1, 3, 255})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1, 1, 2, 2, 3, 40, 0, 7, 2})
	seed := make([]byte, 0, 96)
	for i := 0; i < 32; i++ {
		seed = append(seed, byte(i%4), byte(i*37), byte(i))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSimulator()

		// seq mirrors the engine's tie-break counter: the n-th event
		// scheduled carries seq n-1.
		type tracked struct {
			at    Time
			seq   uint64
			fired bool
		}
		var all []*tracked
		track := func(at Time) *tracked {
			tr := &tracked{at: at, seq: uint64(len(all))}
			all = append(all, tr)
			return tr
		}

		var lastAt Time
		var lastSeq uint64
		fired, peak := 0, 0
		fire := func(arg any) {
			tr := arg.(*tracked)
			if tr.fired {
				t.Fatalf("event (at=%v seq=%d) fired twice", tr.at, tr.seq)
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
		}

		checkHeap := func() {
			for i, ev := range s.events {
				if i > 0 {
					p := s.events[(i-1)>>2]
					if ev.at < p.at || (ev.at == p.at && ev.seq < p.seq) {
						t.Fatalf("heap violation at %d: child (%v,%d) < parent (%v,%d)",
							i, ev.at, ev.seq, p.at, p.seq)
					}
				}
			}
			for _, ev := range s.free {
				if ev.fn != nil || ev.arg != nil {
					t.Fatal("free node retains handler state")
				}
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, p := data[i]%4, data[i+1]
			switch op {
			case 0: // schedule p time units out
				s.ScheduleArg(Time(p), fire, track(s.Now()+Time(p)))
			case 1: // schedule at the current instant, behind any ties
				s.ScheduleArgAt(s.Now(), fire, track(s.Now()))
			case 2: // fire one event
				s.Step()
			case 3: // run out a horizon p units long
				s.RunUntil(s.Now() + Time(p))
			}
			peak = max(peak, s.Pending())
			checkHeap()
			if got := fired; got != int(s.Fired()) {
				t.Fatalf("Fired() = %d, observed %d handler calls", s.Fired(), got)
			}
		}

		// Drain: everything still pending must fire, in order.
		if want := len(all) - fired; want != s.Pending() {
			t.Fatalf("Pending() = %d, model says %d", s.Pending(), want)
		}
		s.Run()
		for _, tr := range all {
			if !tr.fired {
				t.Fatalf("event (at=%v seq=%d) lost", tr.at, tr.seq)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("%d events pending after Run", s.Pending())
		}
		// Every node ever allocated is now on the free list.
		if len(s.free) < peak {
			t.Fatalf("pool holds %d nodes, high-water mark was %d", len(s.free), peak)
		}
	})
}
