package sim

import (
	"math"
	"slices"
	"testing"

	"affinity/internal/des"
	"affinity/internal/sched"
)

// handClock is a Clock that times nothing by itself: After records each
// interval, and end finishes processor proc's at its due instant.
type handClock struct {
	h     *Host
	now   des.Time
	due   map[int]des.Time // pending intervals by processor
	asked []int            // every After's processor, in call order
}

func (c *handClock) Now() des.Time { return c.now }
func (c *handClock) Stop()         {}
func (c *handClock) Pending() int  { return len(c.due) }
func (c *handClock) Fired() uint64 { return 0 }
func (c *handClock) After(proc int, d des.Time) {
	c.due[proc] = c.now + d
	c.asked = append(c.asked, proc)
}

func (c *handClock) end(proc int) {
	c.now = c.due[proc]
	delete(c.due, proc)
	c.h.Elapsed(c.now, proc)
}

// The shared-stack lock lives in the host. Three locked jobs of equal
// cost ask for it at one instant, out of processor order: the lock must
// go to them in request order, record each wait at its grant, and go
// free once nobody waits, so a later request is granted at once.
func TestHostLockGrantsInRequestOrder(t *testing.T) {
	p := Params{Paradigm: Locking, Policy: sched.FCFS, Processors: 3, Streams: 3}.WithDefaults()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	clk := &handClock{due: map[int]des.Time{}}
	h := NewHost(p, clk)
	clk.h = h
	for s := 0; s < 3; s++ {
		h.Arrive(0, s) // each starts cold on its own idle processor
	}
	if len(clk.due) != 3 {
		t.Fatalf("%d intervals pending after three placements, want 3", len(clk.due))
	}
	c := h.jobs[0].crit
	if c <= 0 || h.jobs[1].crit != c || h.jobs[2].crit != c {
		t.Fatalf("critical sections %v, %v, %v; want three equal and positive",
			h.jobs[0].crit, h.jobs[1].crit, h.jobs[2].crit)
	}
	request := []int{2, 0, 1}
	clk.asked = nil // from here, every After is a grant's
	for _, proc := range request {
		clk.end(proc)
	}
	for n := 1; n <= 3; n++ {
		if got := h.lockWait.N(); got != uint64(n) {
			t.Fatalf("%d waits recorded with %d grants made, want one per grant", got, n)
		}
		holder := clk.asked[len(clk.asked)-1]
		clk.end(holder)
	}
	if !slices.Equal(clk.asked, request) {
		t.Fatalf("lock granted in order %v, want the request order %v", clk.asked, request)
	}
	want := float64(0+c+2*c) / 3
	if got := h.Results().MeanLockWait; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("MeanLockWait = %v, want (0 + c + 2c)/3 = %v", got, want)
	}
	if h.lockHeld || h.lockQ.Len() != 0 {
		t.Fatalf("lock held=%v with %d waiting after the last release, want free", h.lockHeld, h.lockQ.Len())
	}
	h.Arrive(clk.now, 0)
	proc := clk.asked[len(clk.asked)-1]
	clk.end(proc)
	if _, timing := clk.due[proc]; !timing || h.lockWait.N() != 4 {
		t.Fatal("a request to the free lock was not granted at once")
	}
}
