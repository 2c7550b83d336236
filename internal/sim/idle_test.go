package sim

import (
	"slices"
	"testing"

	"affinity/internal/faults"
	"affinity/internal/sched"
	"affinity/internal/traffic"
)

// The host keeps its idle processors as a bitmask, updated at the four
// busy/down transitions (beginService, goIdle, procDown, procUp). This
// steps the DES one event at a time under every paradigm, with
// processors failing, recovering and slowing down, and checks after
// every event that idleProcs lists exactly the processors the busy/down
// scan it replaced would, in ascending order.
func TestIdleMaskMatchesProcState(t *testing.T) {
	// Processor 2 recovers 10 µs after it fails, while its packet is
	// still in service: procUp must leave a busy processor out.
	plan, err := faults.Parse("down:1@40ms,slow:2x3@60ms,down:5@90ms,up:1@150ms," +
		"down:0@180ms,up:5@220ms,down:1@240ms,slow:2x1@260ms,up:0@300ms,up:1@330ms," +
		"down:2@100ms,up:2@100.01ms")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		paradigm   Paradigm
		policy     sched.Kind
		processors int
	}{
		{"locking", Locking, sched.MRU, 0},
		{"ips", IPS, sched.IPSWired, 0},
		{"hybrid", Hybrid, sched.IPSMRU, 0},
		// More than 64 processors, so the mask spans two words.
		{"locking-70", Locking, sched.FCFS, 70},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := quick(c.paradigm, c.policy)
			p.Processors = c.processors
			p.Streams = 12
			p.Arrival = traffic.Batch{PacketsPerSec: 2500, MeanBurst: 4}
			if c.processors > 0 {
				p.Streams = 2 * c.processors
			}
			p.Faults = plan
			p.MeasuredPackets = 8000 // past the last fault event
			p = p.WithDefaults()
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			r := newRunner(p)
			r.start()
			var want []int
			events, sawBusy, sawDown := 0, false, false
			for r.sim.Step() {
				events++
				want = want[:0]
				for i := range r.procs {
					ps := &r.procs[i]
					sawBusy = sawBusy || ps.busy
					sawDown = sawDown || ps.down
					if !ps.busy && !ps.down {
						want = append(want, i)
					}
				}
				if got := r.idleProcs(); !slices.Equal(got, want) {
					t.Fatalf("event %d at %v: idleProcs() = %v, busy/down scan %v",
						events, r.sim.Now(), got, want)
				}
			}
			if !sawBusy || !sawDown {
				t.Fatalf("%d events never had a busy (%v) and a down (%v) processor", events, sawBusy, sawDown)
			}
		})
	}
}
