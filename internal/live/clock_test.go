package live

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"affinity/internal/des"
)

// startGroup gives each body its own wake slot, registers the bodies
// with the clock and runs them, waiting for all to unwind.
func startGroup(c *clock, bodies ...func(w *waiter)) {
	ws := make([]*waiter, len(bodies))
	for i := range ws {
		ws[i] = c.newWaiter()
	}
	c.spawn(len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.exit()
			body(ws[i])
		}()
	}
	wg.Wait()
}

// sleep is a worker's timed wait: it schedules the caller's own
// sleeper d from now, then parks until the clock releases it.
func sleep(c *clock, w *waiter, d des.Time) bool {
	c.schedule(w, d)
	return c.park(w)
}

// sourceFunc is a source whose firing is the function itself.
type sourceFunc func(now des.Time) (des.Time, bool)

func (f sourceFunc) fire(now des.Time) (des.Time, bool) { return f(now) }

func TestClockReleasesSleepersInTimeOrder(t *testing.T) {
	c := newClock(des.Second)
	var mu sync.Mutex
	var order []des.Time
	sleepAndLog := func(d des.Time) func(*waiter) {
		return func(w *waiter) {
			if !sleep(c, w, d) {
				t.Error("sleep stopped early")
				return
			}
			mu.Lock()
			order = append(order, c.Now())
			mu.Unlock()
		}
	}
	startGroup(c, sleepAndLog(30), sleepAndLog(10), sleepAndLog(20))
	want := []des.Time{10, 20, 30}
	if len(order) != len(want) {
		t.Fatalf("wake order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

// TestClockRefusesNaN: a sleeper due at NaN would sit in the queue
// under a key that orders as no time; registering one panics.
func TestClockRefusesNaN(t *testing.T) {
	c := newClock(des.Second)
	w := c.newWaiter()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic registering a sleeper at NaN")
		}
	}()
	c.schedule(w, des.Time(math.NaN()))
}

func TestClockReleasesSameInstantTogether(t *testing.T) {
	// All sleepers due at the same instant must be runnable
	// concurrently: each waits for every sibling at a barrier before
	// returning, which can only work if no sibling is still parked in
	// the clock when the first one runs.
	const n = 8
	c := newClock(des.Second)
	var barrier sync.WaitGroup
	barrier.Add(n)
	bodies := make([]func(*waiter), n)
	for i := range bodies {
		bodies[i] = func(w *waiter) {
			if !sleep(c, w, 500) {
				t.Error("sleep stopped early")
				barrier.Done()
				return
			}
			if got := c.Now(); got != 500 {
				t.Errorf("Now() = %v at wake, want 500", got)
			}
			barrier.Done()
			barrier.Wait()
		}
	}
	startGroup(c, bodies...)
	if got := c.Fired(); got != n {
		t.Errorf("Fired() = %d, want %d", got, n)
	}
}

func TestClockHorizonStopsRun(t *testing.T) {
	c := newClock(100)
	startGroup(c, func(w *waiter) {
		if sleep(c, w, 101) {
			t.Error("sleep beyond horizon returned true, want stop")
		}
	})
	if got := c.Now(); got != 100 {
		t.Errorf("Now() = %v after horizon stop, want 100", got)
	}
}

func TestClockQuiescenceStopsAtHorizon(t *testing.T) {
	// When the last goroutine exits with no timers pending, nothing can
	// ever happen again: DES RunUntil semantics put the clock at the
	// horizon.
	c := newClock(1000)
	startGroup(c, func(w *waiter) {
		if !sleep(c, w, 10) {
			t.Error("sleep stopped early")
		}
	})
	if got := c.Now(); got != 1000 {
		t.Errorf("Now() = %v after quiescence, want horizon 1000", got)
	}
}

func TestClockParkedGoroutineDoesNotHoldClock(t *testing.T) {
	// A parked goroutine has no due time: with it parked and nothing
	// scheduled for it, the clock still advances past it and reaches
	// quiescence, which stops the run and unparks it with false.
	c := newClock(1000)
	startGroup(c,
		func(w *waiter) {
			if c.park(w) {
				t.Error("park returned true with nothing scheduled")
			}
		},
		func(w *waiter) {
			if !sleep(c, w, 10) {
				t.Error("sleep stopped early")
			}
		},
	)
	if got := c.Now(); got != 1000 {
		t.Errorf("Now() = %v after quiescence, want horizon 1000", got)
	}
}

func TestClockScheduleReleasesParkedGoroutine(t *testing.T) {
	// The hand-off: a runnable goroutine schedules a parked one, which
	// the clock releases d later, counted runnable by the release alone.
	c := newClock(des.Second)
	var target *waiter
	var ready sync.WaitGroup
	ready.Add(1)
	var woke des.Time
	startGroup(c,
		func(w *waiter) {
			target = w
			ready.Done()
			if !c.park(w) {
				t.Error("park stopped early")
				return
			}
			woke = c.Now()
		},
		func(w *waiter) {
			ready.Wait()
			if !sleep(c, w, 5) {
				t.Error("sleep stopped early")
				return
			}
			c.schedule(target, 3)
		},
	)
	if woke != 8 {
		t.Errorf("parked goroutine woke at %v, want 8", woke)
	}
	if got := c.Fired(); got != 2 {
		t.Errorf("Fired() = %d, want 2 (one sleep, one schedule)", got)
	}
}

func TestClockScheduleBeforePark(t *testing.T) {
	// A goroutine may be scheduled before it parks, as a worker whose
	// Elapsed starts its own next interval is: the sleeper waits in the
	// heap until its goroutine parks, and the runnable count stays
	// balanced, so a later timer still fires.
	c := newClock(des.Second)
	startGroup(c, func(w *waiter) {
		c.schedule(w, 4)
		if !c.park(w) {
			t.Error("park stopped early")
			return
		}
		if got := c.Now(); got != 4 {
			t.Errorf("Now() = %v after self-scheduled park, want 4", got)
		}
		if !sleep(c, w, 10) {
			t.Error("timer starved after a self-scheduled park")
		}
	})
	if got := c.Fired(); got != 2 {
		t.Errorf("Fired() = %d, want 2", got)
	}
}

func TestClockFiresSourcesOneAtATime(t *testing.T) {
	// Same-instant sources fire one at a time in registration order, at
	// their instant, ahead of a worker due at the same instant; a source
	// that fires again re-registers at its next delay.
	c := newClock(des.Second)
	var order []int
	for i := range 3 {
		c.fireAt(10, sourceFunc(func(now des.Time) (des.Time, bool) {
			if got := c.Now(); got != now {
				t.Errorf("source %d: Now() = %v while firing at %v", i, got, now)
			}
			order = append(order, i)
			return 5, i == 1 && now == 10
		}))
	}
	startGroup(c, func(w *waiter) {
		if !sleep(c, w, 10) {
			t.Error("sleep stopped early")
			return
		}
		order = append(order, -1)
		if !sleep(c, w, 10) {
			t.Error("sleep stopped early")
		}
	})
	if want := []int{0, 1, 2, -1, 1}; !slices.Equal(order, want) {
		t.Errorf("firing order %v, want %v", order, want)
	}
	if got := c.Fired(); got != 6 {
		t.Errorf("Fired() = %d, want 6 (four firings, two releases)", got)
	}
}

func TestClockSourceHoldsClockWhileFiring(t *testing.T) {
	// A firing source holds the clock at its instant, so it can hand
	// work to a parked worker as a runnable goroutine does; a source
	// that stops the run stops it at the source's instant.
	c := newClock(des.Second)
	var woke des.Time
	var target *waiter
	c.fireAt(7, sourceFunc(func(des.Time) (des.Time, bool) {
		c.schedule(target, 3)
		return 0, false
	}))
	c.fireAt(20, sourceFunc(func(des.Time) (des.Time, bool) {
		c.stop()
		return 0, false
	}))
	var ready sync.WaitGroup
	ready.Add(1)
	startGroup(c,
		func(w *waiter) {
			target = w
			ready.Done()
			if !c.park(w) {
				t.Error("park stopped early")
				return
			}
			woke = c.Now()
			if c.park(w) {
				t.Error("park after the stopping source returned true")
			}
		},
		func(w *waiter) {
			ready.Wait()
			c.park(w)
		},
	)
	if woke != 10 {
		t.Errorf("worker scheduled by a source woke at %v, want 10", woke)
	}
	if got := c.Now(); got != 20 {
		t.Errorf("Now() = %v after a source stopped the run, want 20", got)
	}
}

func TestClockStopUnblocksEveryone(t *testing.T) {
	// stop must release a goroutine sleeping on a timer, one parked
	// with nothing scheduled, and one parked with a sleeper scheduled
	// on its behalf; each sees false. The stopper's own next clock call
	// also returns false.
	c := newClock(des.Second)
	var scheduled *waiter
	var ready sync.WaitGroup
	ready.Add(1)
	var stopped atomic.Int32
	startGroup(c,
		func(w *waiter) {
			if !sleep(c, w, 100) {
				stopped.Add(1)
			}
		},
		func(w *waiter) {
			if !c.park(w) {
				stopped.Add(1)
			}
		},
		func(w *waiter) {
			scheduled = w
			ready.Done()
			if !c.park(w) {
				stopped.Add(1)
			}
		},
		func(w *waiter) {
			ready.Wait()
			if !sleep(c, w, 5) {
				t.Error("sleep stopped before stop()")
				return
			}
			c.schedule(scheduled, 50)
			c.stop()
			if !sleep(c, w, 1) {
				stopped.Add(1)
			}
		},
	)
	if got := stopped.Load(); got != 4 {
		t.Errorf("%d goroutines saw the stop, want 4", got)
	}
	if got := c.Now(); got != 5 {
		t.Errorf("Now() = %v after stop, want the stop instant 5", got)
	}
}

func TestClockStopWithReleasePending(t *testing.T) {
	// A goroutine released in the same batch as the stopper may not
	// have received its release yet when stop runs: its slot is full, so
	// it runs on with true and sees the stop at its next clock call.
	const n = 4
	c := newClock(des.Second)
	var stopOnce sync.Once
	var after atomic.Int32
	bodies := make([]func(*waiter), n)
	for i := range bodies {
		bodies[i] = func(w *waiter) {
			if !sleep(c, w, 10) {
				t.Error("same-instant sleeper missed its release")
				return
			}
			stopOnce.Do(c.stop)
			if !sleep(c, w, 10) {
				after.Add(1)
			}
		}
	}
	startGroup(c, bodies...)
	if got := after.Load(); got != n {
		t.Errorf("%d goroutines saw the stop after their release, want %d", got, n)
	}
}
