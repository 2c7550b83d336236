// Package live is the concurrent execution backend: it drives the
// discrete-event simulator's own host core (sim.Host — queues,
// dispatch policies, cost-model charging, statistics) on real
// goroutines — one worker per simulated processor, real channels for
// work hand-off, a real mutex guarding the host. Only the clock
// differs from the DES.
//
// Time is virtual. A run does not sleep wall-clock microseconds;
// instead every goroutine that would wait (for a service time to
// elapse, for work to arrive, for the shared-stack lock) blocks on the
// run's virtual clock, and the clock advances to the earliest pending
// wake-up only when every goroutine in the run is blocked. That makes a
// live run complete as fast as the hardware allows while preserving the
// simulated timescale, exactly like a conservatively synchronized
// parallel simulation. Same-instant arrivals are released one at a
// time in the DES's schedule order (keyed sleepers, below). What the
// virtual clock does NOT serialize is workers woken at the same
// virtual instant: they run concurrently on real OS threads and
// contend for the dispatch lock in hardware order.
//
// Where no two events share an instant, a live run is therefore
// bit-identical to the DES run of the same Params (every Results field
// but EventsFired), run after run — the differential harness
// (differ_test.go) asserts this on every tie-free point. Where an
// arrival ties with a completion (same-rate CBR, batch arrivals), the
// live clock releases the arrival first while the DES goes by
// insertion order, and the backends agree statistically. DESIGN.md §10
// states what is compared, and how tightly.
package live

import (
	"sync"

	"affinity/internal/des"
)

// sleeper is one goroutine blocked until a virtual instant. A keyed
// sleeper is an ordered event source (an arrival stream): same-instant
// keyed sleepers are released one at a time in (at, seq) order, each
// running to its next park before the following one releases, instead
// of being released together to race. Because arrival sources register
// their first sleep in stream order and re-register serially under this
// protocol, a keyed sleeper's seq reproduces the DES event heap's
// schedule order exactly — the deterministic (stream, seq) tie-break
// both backends share (see DESIGN.md §10).
type sleeper struct {
	at    des.Time
	seq   uint64
	keyed bool
	ch    chan struct{}
}

// clock is the virtual-time coordinator. Every goroutine participating
// in a run is registered (spawn/exit) and is, at any moment, either
// runnable — executing code, or blocked on an ordinary mutex another
// runnable goroutine holds — or blocked in the clock (sleep, parkRecv).
// The clock advances only when the runnable count reaches zero: it then
// jumps to the earliest pending wake-up and releases every sleeper due
// at that instant at once, so same-time events execute with real
// concurrency.
//
// The accounting protocol for channel-based blocking: a sender that
// will unblock a parked receiver calls wake (crediting one runnable)
// before sending; parkRecv debits the receiver when it blocks and
// consumes the sender's credit when a value was already buffered. The
// credit always travels with the hand-off, never with a particular
// goroutine, so it balances no matter which side wins the race.
type clock struct {
	mu       sync.Mutex
	now      des.Time
	horizon  des.Time
	runnable int
	sleepers []sleeper // binary min-heap by (at, seq)
	seq      uint64
	fired    uint64
	stopped  bool
	stopCh   chan struct{}
}

func newClock(horizon des.Time) *clock {
	return &clock{horizon: horizon, stopCh: make(chan struct{})}
}

// Now returns the current virtual time. A runnable caller sees a stable
// value: the clock cannot advance while anything is runnable.
func (c *clock) Now() des.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Fired returns how many virtual timer events have been released.
func (c *clock) Fired() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// Pending returns the number of goroutines currently asleep on a timer
// (the live analogue of the DES event-heap depth).
func (c *clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sleepers)
}

// spawn registers n goroutines about to start; call before `go`.
func (c *clock) spawn(n int) {
	c.mu.Lock()
	c.runnable += n
	c.mu.Unlock()
}

// exit unregisters the calling goroutine.
func (c *clock) exit() {
	c.mu.Lock()
	c.runnable--
	c.advanceLocked()
	c.mu.Unlock()
}

// wake credits one runnable for a hand-off the caller is about to make
// (a channel send that unblocks a parked goroutine).
func (c *clock) wake() {
	c.mu.Lock()
	c.runnable++
	c.mu.Unlock()
}

// sleep blocks the caller for d of virtual time. It returns false when
// the run stopped instead (the caller should unwind).
func (c *clock) sleep(d des.Time) bool {
	if d < 0 {
		panic("live: negative sleep")
	}
	c.mu.Lock()
	return c.sleepAtLocked(c.now+d, false)
}

// sleepKeyed is sleep for ordered event sources: the sleeper releases
// serially in deterministic (at, seq) order ahead of any same-instant
// unkeyed sleepers (see the sleeper comment).
func (c *clock) sleepKeyed(d des.Time) bool {
	if d < 0 {
		panic("live: negative sleep")
	}
	c.mu.Lock()
	return c.sleepAtLocked(c.now+d, true)
}

// sleepUntil blocks the caller until virtual time at (or now, if at is
// already past). It returns false when the run stopped instead.
func (c *clock) sleepUntil(at des.Time) bool {
	c.mu.Lock()
	if at < c.now {
		at = c.now
	}
	return c.sleepAtLocked(at, false)
}

// sleepAtLocked enqueues the caller as a sleeper due at the absolute
// instant at and blocks until released. Called with mu held; unlocks.
func (c *clock) sleepAtLocked(at des.Time, keyed bool) bool {
	if c.stopped {
		c.mu.Unlock()
		return false
	}
	ch := make(chan struct{})
	c.heapPush(sleeper{at: at, seq: c.seq, keyed: keyed, ch: ch})
	c.seq++
	c.runnable--
	c.advanceLocked()
	c.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-c.stopCh:
		return false
	}
}

// preSleep registers a keyed sleeper on behalf of a goroutine that has
// not been spawned (and is not counted runnable) yet; the goroutine
// must block on the returned channel before doing anything else. The
// caller registers its event sources in a fixed order before starting
// any of them, which pins the initial seq assignment — the base case of
// the keyed determinism induction; racing first-sleeps from the sources
// themselves would scramble it.
func (c *clock) preSleep(d des.Time) chan struct{} {
	if d < 0 {
		panic("live: negative sleep")
	}
	ch := make(chan struct{})
	c.mu.Lock()
	c.heapPush(sleeper{at: c.now + d, seq: c.seq, keyed: true, ch: ch})
	c.seq++
	c.mu.Unlock()
	return ch
}

// parkRecv blocks the caller on ch until a value is handed to it (the
// sender must call wake before sending) or the run stops. Unlike sleep,
// a parked goroutine has no due time and does not hold up the clock.
func parkRecv[T any](c *clock, ch chan T) (T, bool) {
	var zero T
	c.mu.Lock()
	select {
	case v := <-ch:
		// The value was already buffered: consume the sender's credit —
		// the caller itself never stopped being runnable.
		c.runnable--
		c.mu.Unlock()
		return v, true
	default:
	}
	if c.stopped {
		c.mu.Unlock()
		return zero, false
	}
	c.runnable--
	c.advanceLocked()
	c.mu.Unlock()
	select {
	case v := <-ch:
		return v, true
	case <-c.stopCh:
		return zero, false
	}
}

// stop freezes the clock and releases every blocked goroutine with a
// "run over" signal. Idempotent.
func (c *clock) stop() {
	c.mu.Lock()
	c.stopLocked()
	c.mu.Unlock()
}

func (c *clock) stopLocked() {
	if c.stopped {
		return
	}
	c.stopped = true
	close(c.stopCh)
}

// advanceLocked advances virtual time when nothing is runnable: it
// releases every sleeper due at the earliest pending instant together.
// Crossing the horizon, or full quiescence (nothing runnable AND no
// pending timer — nothing can ever happen again), ends the run; DES
// RunUntil semantics put the clock at the horizon in both cases.
func (c *clock) advanceLocked() {
	if c.runnable > 0 || c.stopped {
		return
	}
	if len(c.sleepers) == 0 {
		c.now = c.horizon
		c.stopLocked()
		return
	}
	t := c.sleepers[0].at
	if t > c.horizon {
		c.now = c.horizon
		c.stopLocked()
		return
	}
	c.now = t
	// Keyed sleepers sort ahead of same-instant unkeyed ones, so a keyed
	// top means ordered events are pending at t: release exactly one and
	// let it run to its next park (runnable returns to zero) before the
	// next release — the serial, deterministic firing order of the DES
	// event loop. Only when no keyed sleeper remains at t does the
	// same-instant unkeyed batch release together to race.
	if c.sleepers[0].keyed {
		s := c.heapPop()
		c.runnable++
		c.fired++
		close(s.ch)
		return
	}
	for len(c.sleepers) > 0 && c.sleepers[0].at == t {
		s := c.heapPop()
		c.runnable++
		c.fired++
		close(s.ch)
	}
}

// heapPush / heapPop maintain the sleeper min-heap ordered by
// (at, keyed-first, seq); seq keeps same-instant wake order stable with
// registration order, and keyed (ordered-event) sleepers sort ahead of
// unkeyed ones at the same instant so advanceLocked can serialize them.
func (c *clock) heapPush(s sleeper) {
	c.sleepers = append(c.sleepers, s)
	i := len(c.sleepers) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sleeperLess(c.sleepers[i], c.sleepers[parent]) {
			break
		}
		c.sleepers[i], c.sleepers[parent] = c.sleepers[parent], c.sleepers[i]
		i = parent
	}
}

func (c *clock) heapPop() sleeper {
	top := c.sleepers[0]
	n := len(c.sleepers) - 1
	c.sleepers[0] = c.sleepers[n]
	c.sleepers[n] = sleeper{}
	c.sleepers = c.sleepers[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && sleeperLess(c.sleepers[l], c.sleepers[min]) {
			min = l
		}
		if r < n && sleeperLess(c.sleepers[r], c.sleepers[min]) {
			min = r
		}
		if min == i {
			break
		}
		c.sleepers[i], c.sleepers[min] = c.sleepers[min], c.sleepers[i]
		i = min
	}
	return top
}

func sleeperLess(a, b sleeper) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.keyed != b.keyed {
		return a.keyed
	}
	return a.seq < b.seq
}
