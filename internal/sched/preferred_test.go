package sched

import "testing"

func TestPacketPreferredProc(t *testing.T) {
	t.Run("fcfs", func(t *testing.T) {
		d := newPD(FCFS, 3)
		if d.PreferredProc(0) != -1 {
			t.Fatal("FCFS must have no affinity target")
		}
	})
	t.Run("mru", func(t *testing.T) {
		d := newPD(MRU, 3)
		if d.PreferredProc(5) != -1 {
			t.Fatal("unseen entity must have no target")
		}
		d.RanOn(5, 2)
		if d.PreferredProc(5) != 2 {
			t.Fatal("MRU target must follow RanOn")
		}
		d.ProcDown(2)
		if d.PreferredProc(5) != -1 {
			t.Fatal("fault must forget the affinity")
		}
	})
	for _, k := range []Kind{ThreadPools, WiredStreams} {
		t.Run(k.String(), func(t *testing.T) {
			d := newPD(k, 3)
			// A pure read: asking about an unseen entity must not assign a
			// home (homeOf would advance the round-robin cursor).
			if d.PreferredProc(7) != -1 {
				t.Fatal("unseen entity must have no home yet")
			}
			h1 := d.PickProcessor(Packet{Stream: 0, Entity: 0}, []int{0, 1, 2})
			if got := d.PreferredProc(0); got != h1 {
				t.Fatalf("home=%d after placement on %d", got, h1)
			}
			// The read must not have perturbed round-robin state: the next
			// entity still gets the next home in sequence.
			h2 := d.PickProcessor(Packet{Stream: 1, Entity: 1}, []int{0, 1, 2})
			if h2 != (h1+1)%3 {
				t.Fatalf("round-robin perturbed: first=%d second=%d", h1, h2)
			}
		})
	}
}

func TestStackPreferredProc(t *testing.T) {
	t.Run("wired", func(t *testing.T) {
		d := newSD(IPSWired, 4, 2)
		if d.PreferredProc(0) != 0 || d.PreferredProc(3) != 1 {
			t.Fatal("wired target must be the static binding")
		}
		d.ProcDown(0)
		if d.PreferredProc(0) == 0 {
			t.Fatal("fault must move the wiring")
		}
		d.ProcUp(0)
		if d.PreferredProc(0) != 0 {
			t.Fatal("recovery must wire the stack back")
		}
	})
	t.Run("mru", func(t *testing.T) {
		d := newSD(IPSMRU, 4, 2)
		if d.PreferredProc(1) != -1 {
			t.Fatal("unseen stack must have no target")
		}
		d.RanOn(1, 1)
		if d.PreferredProc(1) != 1 {
			t.Fatal("MRU target must follow RanOn")
		}
	})
	t.Run("random", func(t *testing.T) {
		d := newSD(IPSRandom, 4, 2)
		d.RanOn(1, 1)
		if d.PreferredProc(1) != -1 {
			t.Fatal("random baseline must have no target")
		}
	})
}
