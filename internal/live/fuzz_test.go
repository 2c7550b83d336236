package live_test

import (
	"testing"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/live"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// FuzzFaultPlanConservation: no fault plan and no queue bound, however
// adversarial, may ever violate the 4-term conservation ledger — on
// either backend. The fuzzer drives a structured plan (outage window,
// slowdown, loss, burst) plus a queue bound and policy selector; both
// engines run it and every shared invariant must hold. The selector
// reaches MRU, Hybrid/IPS-MRU and every static-home policy, and more
// takes up to three further processors down for the same outage, one
// every more>>2 ms, so a plan can re-home more than once or take every
// processor down (the last-processor rule).
func FuzzFaultPlanConservation(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint8(250), uint8(150), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint16(8), uint8(10), uint8(200), uint8(3), uint8(50), uint8(200), uint8(0))
	f.Add(int64(3), uint8(2), uint16(1), uint8(255), uint8(1), uint8(100), uint8(255), uint8(9), uint8(0))
	f.Add(int64(4), uint8(0), uint16(64), uint8(0), uint8(0), uint8(30), uint8(4), uint8(255), uint8(0))
	f.Add(int64(5), uint8(4), uint16(0), uint8(100), uint8(200), uint8(0), uint8(0), uint8(0), uint8(3|10<<2))
	f.Add(int64(6), uint8(6), uint16(16), uint8(50), uint8(100), uint8(0), uint8(20), uint8(0), uint8(1|5<<2))
	f.Add(int64(7), uint8(3), uint16(0), uint8(200), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add(int64(8), uint8(5), uint16(4), uint8(30), uint8(250), uint8(0), uint8(0), uint8(0), uint8(2|1<<2))
	f.Fuzz(func(t *testing.T, seed int64, parSel uint8, maxQueue uint16,
		downMs, outageMs, lossPct, burst, slowTenths, more uint8) {
		p := sim.Params{
			Streams:         4,
			Processors:      4,
			Arrival:         traffic.Poisson{PacketsPerSec: 1500},
			Seed:            seed,
			MeasuredPackets: 300,
			MaxTime:         800 * des.Millisecond,
			MaxQueueDepth:   int(maxQueue),
		}
		switch parSel % 7 {
		case 0:
			p.Paradigm, p.Policy = sim.Locking, sched.MRU
		case 1:
			p.Paradigm, p.Policy, p.Stacks = sim.IPS, sched.IPSWired, 4
		case 2:
			p.Paradigm, p.Policy, p.Stacks = sim.Hybrid, sched.IPSMRU, 4
		default:
			p.Paradigm = sim.Locking
			p.Policy = []sched.Kind{sched.ThreadPools, sched.WiredStreams, sched.RSS, sched.FlowDirector}[parSel%7-3]
		}
		plan := &faults.Plan{}
		if downMs > 0 {
			at := des.Time(downMs) * des.Millisecond
			gap := des.Time(more>>2) * des.Millisecond
			for k := range 1 + int(more%4) {
				proc := (int(parSel) + k) % p.Processors
				plan.Down(at+des.Time(k)*gap, proc)
				if outageMs > 0 {
					plan.Up(at+des.Time(outageMs)*des.Millisecond+des.Time(k)*gap, proc)
				}
			}
		}
		if lossPct > 0 {
			plan.WithLoss(des.Time(outageMs)*des.Millisecond, float64(lossPct%101)/100)
		}
		if burst > 0 {
			plan.Events = append(plan.Events, faults.Event{
				At: des.Time(downMs) * des.Millisecond, Kind: faults.Burst,
				Stream: int(burst)%p.Streams - 1, // -1 selects all streams
				Count:  int(burst),
			})
		}
		if slowTenths > 0 {
			plan.Events = append(plan.Events, faults.Event{
				At: des.Time(outageMs) * des.Millisecond, Kind: faults.Slowdown,
				Proc: int(slowTenths) % p.Processors, Factor: float64(slowTenths) / 10,
			})
		}
		if !plan.Empty() {
			if err := plan.Validate(p.Processors, p.Streams); err != nil {
				t.Skip() // fuzzer built an invalid plan; nothing to check
			}
			p.Faults = plan
		}
		for _, b := range []struct {
			name string
			run  func(sim.Params) sim.Results
		}{{"des", sim.Run}, {"live", live.Run}} {
			res := b.run(p)
			if err := sim.CheckInvariants(res); err != nil {
				t.Errorf("%s: %v", b.name, err)
			}
		}
	})
}
