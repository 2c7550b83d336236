package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// after schedules fn through ScheduleArg, the engine's one scheduling
// path; the closure rides as the event's argument.
func after(s *Simulator, delay Time, fn func()) {
	s.ScheduleArg(delay, runFunc, fn)
}

func runFunc(arg any) { arg.(func())() }

// acquire requests a unit of r through AcquireArg, like after.
func acquire(r *Resource, grant func()) {
	r.AcquireArg(runFunc, grant)
}

func TestClockStartsAtZero(t *testing.T) {
	s := NewSimulator()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewSimulator()
	var fired []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		after(s, d, func() { fired = append(fired, s.Now()) })
	}
	s.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		after(s, 5, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (tie-break broken)", i, got, i)
		}
	}
}

func TestScheduleFromHandler(t *testing.T) {
	s := NewSimulator()
	var times []Time
	after(s, 10, func() {
		times = append(times, s.Now())
		after(s, 5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewSimulator()
	count := 0
	var tick func()
	tick = func() {
		count++
		after(s, 10, tick)
	}
	after(s, 10, tick)
	s.RunUntil(95)
	if count != 9 {
		t.Fatalf("count = %d, want 9", count)
	}
	if s.Now() != 95 {
		t.Fatalf("Now() = %v, want 95 (clock must land on horizon)", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
}

func TestRunUntilEmptyAdvancesToHorizon(t *testing.T) {
	s := NewSimulator()
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("Now() = %v, want 1000", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewSimulator()
	count := 0
	for i := 0; i < 10; i++ {
		after(s, Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	after(NewSimulator(), -1, func() {})
}

func TestScheduleBeforeNowPanics(t *testing.T) {
	s := NewSimulator()
	after(s, 10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	s.ScheduleArgAt(5, runFunc, func() {})
}

// NaN passes an "at < now" check; the schedule path must refuse it
// before it reaches the queue, whose keys order only non-negative times.
func TestScheduleNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling at NaN")
		}
	}()
	NewSimulator().ScheduleArg(Time(math.NaN()), runFunc, func() {})
}

func TestFiredCounter(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 7; i++ {
		after(s, Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

// Property: for any set of non-negative delays, events fire in sorted order.
func TestPropertyEventOrdering(t *testing.T) {
	prop := func(raw []uint16) bool {
		s := NewSimulator()
		var fired []Time
		for _, d := range raw {
			after(s, Time(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		want := make([]Time, len(raw))
		for i, d := range raw {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{1, "1.000µs"},
		{1500, "1.500ms"},
		{2.5e6, "2.500s"},
		// Negative durations (elapsed-time differences) must pick the
		// unit by magnitude, not fall through to µs.
		{-1, "-1.000µs"},
		{-1500, "-1.500ms"},
		{-2.5e6, "-2.500s"},
		{0, "0.000µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := Stream(42, "arrivals")
	b := Stream(42, "arrivals")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := Stream(42, "arrivals")
	b := Stream(42, "service")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'arrivals' and 'service' agree on %d/100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exp(50)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Fatalf("exponential mean = %.3f, want ≈50", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	g := NewRNG(7)
	if g.Exp(0) != 0 || g.Exp(-3) != 0 {
		t.Fatal("Exp with non-positive mean must return 0")
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(11)
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += g.Geometric(8)
	}
	mean := float64(sum) / n
	if math.Abs(mean-8) > 0.2 {
		t.Fatalf("geometric mean = %.3f, want ≈8", mean)
	}
}

func TestGeometricDegenerate(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 100; i++ {
		if g.Geometric(1) != 1 {
			t.Fatal("Geometric(1) must always return 1")
		}
		if g.Geometric(0.5) != 1 {
			t.Fatal("Geometric(<1) must always return 1")
		}
	}
}

func TestGeometricAlwaysPositive(t *testing.T) {
	prop := func(seed int64, mean float64) bool {
		m := 1 + math.Mod(math.Abs(mean), 50)
		g := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if g.Geometric(m) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceImmediateGrant(t *testing.T) {
	r := NewResource(2)
	granted := 0
	acquire(r, func() { granted++ })
	acquire(r, func() { granted++ })
	if granted != 2 {
		t.Fatalf("granted = %d, want 2", granted)
	}
	acquire(r, func() { granted++ })
	if granted != 2 {
		t.Fatal("third acquire granted while both units are held")
	}
	r.Release()
	if granted != 3 {
		t.Fatalf("granted = %d after release, want 3", granted)
	}
}

func TestResourceFIFO(t *testing.T) {
	r := NewResource(1)
	var order []int
	acquire(r, func() {}) // hold the unit
	for i := 0; i < 5; i++ {
		i := i
		acquire(r, func() { order = append(order, i) })
	}
	if len(order) != 0 {
		t.Fatalf("%d waiters granted while the unit is held", len(order))
	}
	for i := 0; i < 5; i++ {
		r.Release()
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	r := NewResource(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on releasing idle resource")
		}
	}()
	r.Release()
}

func TestResourceInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero capacity")
		}
	}()
	NewResource(0)
}

func TestRNGDrawHelpers(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 100; i++ {
		if v := g.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	if d := g.ExpTime(100); d < 0 {
		t.Fatalf("ExpTime negative: %v", d)
	}
}

// newFuncTimer makes a timer that runs fn, through runFunc like after.
func newFuncTimer(s *Simulator, fn func()) *Timer {
	return s.NewTimer(runFunc, fn)
}

// Timers and one-shot events share one (time, seq) order: a timer armed
// between two ScheduleArg calls for the same instant fires between them.
func TestTimersAndEventsShareOneOrder(t *testing.T) {
	s := NewSimulator()
	var order []string
	a := newFuncTimer(s, func() { order = append(order, "timer a") })
	b := newFuncTimer(s, func() { order = append(order, "timer b") })
	after(s, 5, func() { order = append(order, "event 1") })
	s.Arm(b, 5)
	after(s, 5, func() { order = append(order, "event 2") })
	s.Arm(a, 5)
	after(s, 3, func() { order = append(order, "event 0") })
	if got := s.Pending(); got != 5 {
		t.Fatalf("Pending() = %d, want 5", got)
	}
	s.Run()
	want := []string{"event 0", "event 1", "timer b", "event 2", "timer a"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if s.Fired() != 5 || s.Pending() != 0 {
		t.Fatalf("Fired() = %d, Pending() = %d after Run, want 5 and 0", s.Fired(), s.Pending())
	}
}

// A timer that re-arms from its own handler fires again; while its
// handler runs it is not pending until it re-arms; one that returns
// without re-arming goes idle and may be armed again later.
func TestTimerFiresInPlace(t *testing.T) {
	s := NewSimulator()
	var times []Time
	var tm *Timer
	n := 0
	tm = newFuncTimer(s, func() {
		times = append(times, s.Now())
		if s.Pending() != 0 {
			t.Fatalf("firing timer counted as pending: Pending() = %d", s.Pending())
		}
		if n++; n < 3 {
			s.Arm(tm, 10)
			if s.Pending() != 1 {
				t.Fatalf("re-armed timer not pending: Pending() = %d", s.Pending())
			}
		}
	})
	s.Arm(tm, 1)
	s.Run()
	if len(times) != 3 || times[0] != 1 || times[1] != 11 || times[2] != 21 {
		t.Fatalf("fired at %v, want [1 11 21]", times)
	}
	s.Arm(tm, 4)
	s.Run()
	if len(times) != 4 || times[3] != 25 {
		t.Fatalf("re-armed idle timer fired at %v, want 25 last", times)
	}
}

// Any handler may arm an idle timer, as a lock release arms the
// processor it grants the lock to.
func TestTimerArmedFromAnotherHandler(t *testing.T) {
	s := NewSimulator()
	var log []string
	var b *Timer
	a := newFuncTimer(s, func() {
		log = append(log, "a")
		s.Arm(b, 0)
	})
	b = newFuncTimer(s, func() { log = append(log, "b at "+s.Now().String()) })
	after(s, 7, func() { s.Arm(a, 1) })
	s.Run()
	if len(log) != 2 || log[0] != "a" || log[1] != "b at 8.000µs" {
		t.Fatalf("log = %v, want [a, b at 8.000µs]", log)
	}
}

func TestTimerArmWhilePendingPanics(t *testing.T) {
	s := NewSimulator()
	tm := newFuncTimer(s, func() {})
	s.Arm(tm, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arming a pending timer")
		}
		if s.Pending() != 1 {
			t.Fatalf("Pending() = %d after the refused arm, want 1", s.Pending())
		}
	}()
	s.Arm(tm, 6)
}

func TestTimerBadDelayPanics(t *testing.T) {
	for _, d := range []Time{-1, Time(math.NaN())} {
		func() {
			s := NewSimulator()
			tm := newFuncTimer(s, func() {})
			defer func() {
				if recover() == nil {
					t.Errorf("no panic arming with delay %v", d)
				}
			}()
			s.Arm(tm, d)
		}()
	}
}

// RunUntil stops before a timer beyond the horizon and leaves it armed.
func TestRunUntilStopsBeforeTimer(t *testing.T) {
	s := NewSimulator()
	fired := 0
	tm := newFuncTimer(s, func() { fired++ })
	s.Arm(tm, 50)
	s.RunUntil(40)
	if fired != 0 || s.Now() != 40 || s.Pending() != 1 {
		t.Fatalf("fired %d, Now() = %v, Pending() = %d; want 0, 40µs, 1", fired, s.Now(), s.Pending())
	}
	s.RunUntil(50)
	if fired != 1 || s.Now() != 50 {
		t.Fatalf("fired %d, Now() = %v; want 1, 50µs", fired, s.Now())
	}
}

// A timer created after others are armed gets a leaf in a wider tree,
// and the armed timers keep their order.
func TestTimerCreatedAfterArm(t *testing.T) {
	s := NewSimulator()
	var order []int
	var timers []*Timer
	for i := 0; i < 5; i++ {
		i := i
		timers = append(timers, newFuncTimer(s, func() { order = append(order, i) }))
		s.Arm(timers[i], Time(10-i))
	}
	s.Run()
	for i, got := range order {
		if got != 4-i {
			t.Fatalf("order = %v, want [4 3 2 1 0]", order)
		}
	}
}
