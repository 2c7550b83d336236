package policysearch

import (
	"math"
	"reflect"
	"testing"

	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/workload"
)

func searchBase() sim.Params {
	return sim.Params{
		Paradigm: sim.Locking,
		Workload: &workload.Spec{
			Name: "t",
			Classes: []workload.Class{
				{Name: "flows", Model: "poisson", Streams: 8, RatePPS: 9000, Zipf: 1},
			},
		},
		Processors:      4,
		Seed:            7,
		MeasuredPackets: 800,
	}
}

// The search is deterministic: the same base/space/weights produce the
// same Report whether the pool is fresh, reused, serial, or wide — the
// property the E35 golden and the -parallel CI diff rest on.
func TestSearchDeterministic(t *testing.T) {
	base := searchBase()
	space := DefaultSpace()
	w := DefaultWeights()
	a := Search(sim.NewPool(1), base, space, w)
	b := Search(sim.NewPool(8), base, space, w)
	shared := sim.NewPool(4)
	c := Search(shared, base, space, w)
	d := Search(shared, base, space, w) // warm cache: every point memoized
	for i, r := range []Report{b, c, d} {
		if !reflect.DeepEqual(a, r) {
			t.Errorf("report %d differs from the serial fresh-pool report", i)
		}
	}
	if hits, _ := shared.Stats(); hits == 0 {
		t.Error("second search on a shared pool hit the cache zero times")
	}
}

// The grid covers the full cross product in penalty-major declaration
// order, and the winner is at least as fit as every grid point —
// including the FCFS/MRU/Wired corners DefaultSpace carries, which is
// what makes the searched policy a superset of the paper menu.
func TestSearchGridShapeAndWinner(t *testing.T) {
	base := searchBase()
	space := DefaultSpace()
	rep := Search(sim.NewPool(4), base, space, DefaultWeights())
	want := len(space.Penalties) * len(space.Depths) * len(space.Biases)
	if len(rep.Grid) != want {
		t.Fatalf("grid has %d points, want %d", len(rep.Grid), want)
	}
	i := 0
	for _, pen := range space.Penalties {
		for _, dep := range space.Depths {
			for _, bias := range space.Biases {
				got := rep.Grid[i].Steal
				wantP := sched.StealParams{Penalty: pen, DepthThreshold: dep, ColdBias: bias}
				if got != wantP {
					t.Fatalf("grid[%d] = %+v, want %+v (penalty-major order)", i, got, wantP)
				}
				i++
			}
		}
	}
	for _, c := range rep.Grid {
		if c.Fitness < rep.Best.Fitness {
			t.Errorf("grid point %+v fitter than Best", c.Steal)
		}
	}
	if rep.Evaluated < want {
		t.Errorf("Evaluated = %d < grid size %d", rep.Evaluated, want)
	}
}

// Corner presence in DefaultSpace is a semantic guarantee, not an
// accident of the current numbers.
func TestDefaultSpaceContainsCorners(t *testing.T) {
	s := DefaultSpace()
	hasF := func(xs []float64, v float64) bool {
		for _, x := range xs {
			if x == v || (math.IsInf(v, 1) && math.IsInf(x, 1)) {
				return true
			}
		}
		return false
	}
	hasI := func(xs []int, v int) bool {
		for _, x := range xs {
			if x == v {
				return true
			}
		}
		return false
	}
	if !hasF(s.Penalties, 0) || !hasI(s.Depths, 0) || !hasF(s.Biases, 0) {
		t.Error("FCFS corner (0,0,0) missing from DefaultSpace")
	}
	if !hasF(s.Biases, 1) {
		t.Error("MRU corner (0,0,1) missing from DefaultSpace")
	}
	if !hasF(s.Penalties, math.Inf(1)) {
		t.Error("Wired-Streams corner (+Inf) missing from DefaultSpace")
	}
}

// Fitness is a weighted sum with clamped guardrail terms.
func TestFitness(t *testing.T) {
	r := sim.Results{
		MeanDelay:     100,
		P95Delay:      400,
		DelayFairness: 0.75,
		OfferedRate:   1000,
		GoodputPPS:    900,
	}
	w := Weights{MeanDelay: 1, P95Delay: 0.5, Unfairness: 40, GoodputShortfall: 0.1}
	want := 100.0 + 0.5*400 + 40*0.25 + 0.1*100
	if got := Fitness(r, w); math.Abs(got-want) > 1e-9 {
		t.Errorf("Fitness = %g, want %g", got, want)
	}
	// Over-delivery and over-unity fairness never pay a negative price.
	r.GoodputPPS = 2000
	r.DelayFairness = 1.5
	want = 100.0 + 0.5*400
	if got := Fitness(r, w); math.Abs(got-want) > 1e-9 {
		t.Errorf("clamped Fitness = %g, want %g", got, want)
	}
}

// Zero weights score everything zero — the degenerate but legal case.
func TestFitnessZeroWeights(t *testing.T) {
	if got := Fitness(sim.Results{MeanDelay: 123, P95Delay: 456}, Weights{}); got != 0 {
		t.Errorf("zero-weight fitness = %g, want 0", got)
	}
}

// midToward: midpoints exist only between finite neighbors, and ±Inf is
// never bisected toward.
func TestMidToward(t *testing.T) {
	axis := []float64{0, 25, 100, math.Inf(1)}
	cases := []struct {
		v    float64
		dir  int
		want float64
	}{
		{25, -1, 12.5},
		{25, +1, 62.5},
		{0, -1, 0},                     // no finite neighbor below
		{100, +1, 100},                 // +Inf neighbor: no midpoint
		{math.Inf(1), -1, math.Inf(1)}, // pinned point never moves
	}
	for _, c := range cases {
		if got := midToward(c.v, axis, c.dir); got != c.want &&
			!(math.IsInf(c.want, 1) && math.IsInf(got, 1)) {
			t.Errorf("midToward(%g, %d) = %g, want %g", c.v, c.dir, got, c.want)
		}
	}
}

// valid rejects out-of-domain descent probes (the depth −1 neighbor of
// a depth-0 winner, bias outside [0,1]).
func TestValidDomain(t *testing.T) {
	good := []sched.StealParams{{}, {Penalty: math.Inf(1), DepthThreshold: 3, ColdBias: 1}}
	bad := []sched.StealParams{
		{Penalty: -1},
		{DepthThreshold: -1},
		{ColdBias: -0.25},
		{ColdBias: 1.5},
	}
	for _, sp := range good {
		if !valid(sp) {
			t.Errorf("valid(%+v) = false", sp)
		}
	}
	for _, sp := range bad {
		if valid(sp) {
			t.Errorf("valid(%+v) = true", sp)
		}
	}
}

// The descent only ever improves on the grid winner, and a
// single-point space (no neighbors, no midpoints) terminates
// immediately with that point.
func TestSearchSinglePointSpace(t *testing.T) {
	base := searchBase()
	space := Space{Penalties: []float64{25}, Depths: []int{1}, Biases: []float64{1}}
	rep := Search(sim.NewPool(1), base, space, DefaultWeights())
	if len(rep.Grid) != 1 || rep.Best.Steal != rep.Grid[0].Steal {
		t.Fatalf("single-point space: best %+v, grid %d points", rep.Best.Steal, len(rep.Grid))
	}
	if rep.Best.Fitness != Fitness(rep.Best.Results, DefaultWeights()) {
		t.Error("Best.Fitness does not match its own Results")
	}
}

// Searching with a ledger-less pool must leave base untouched — Search
// works on copies (a mutated caller Params would poison the caller's
// later runs).
func TestSearchDoesNotMutateBase(t *testing.T) {
	base := searchBase()
	before := base
	Search(sim.NewPool(2), base, Space{
		Penalties: []float64{0, 25}, Depths: []int{0}, Biases: []float64{0, 1},
	}, DefaultWeights())
	if !reflect.DeepEqual(before, base) {
		t.Errorf("Search mutated its base Params")
	}
}
