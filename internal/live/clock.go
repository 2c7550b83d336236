// Package live is the concurrent execution backend: it drives the
// discrete-event simulator's own host core (sim.Host — queues,
// dispatch policies, cost-model charging, statistics) on real
// goroutines — one worker per simulated processor, one per arrival
// stream, a real mutex guarding the host. Only the clock differs from
// the DES.
//
// Time is virtual. A run does not sleep wall-clock microseconds;
// instead every goroutine that would wait (for a service time to
// elapse, for work to arrive, for the shared-stack lock) parks on its
// own wake slot, and only the run's virtual clock releases it. The
// clock advances to the earliest pending wake-up only when every
// goroutine in the run is parked. That makes a live run complete as
// fast as the hardware allows while preserving the simulated
// timescale, exactly like a conservatively synchronized parallel
// simulation. Same-instant arrivals are released one at a time in the
// DES's schedule order (keyed sleepers, below). What the virtual clock
// does NOT serialize is workers woken at the same virtual instant: they
// run concurrently on real OS threads and contend for the dispatch lock
// in hardware order.
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
	"fmt"
	"sync"

	"affinity/internal/des"
)

// waiter is one goroutine's wake slot, made once before the goroutine
// starts and reused for its whole life. The goroutine blocks only by
// receiving from its own slot: the clock sends true when a sleeper it
// registered (or one registered on its behalf) is due, and stop sends
// false. A goroutine has at most one sleeper pending, and the clock
// releases it only after the goroutine has parked, so a release always
// finds the slot empty.
type waiter struct{ ch chan bool }

// wait blocks until the clock releases the slot; false means the run
// stopped.
func (w *waiter) wait() bool { return <-w.ch }

// unkeyed marks the tie word of an unkeyed sleeper. A keyed sleeper is
// an ordered event source (an arrival stream) and its tie is its
// registration seq alone, so at one instant every keyed sleeper sorts
// ahead of every unkeyed one, and each kind sorts by seq. Same-instant
// keyed sleepers are released one at a time in (at, seq) order, each
// running to its next park before the following one releases, instead
// of being released together to race. Because arrival sources register
// their first sleep in stream order and re-register serially under this
// protocol, a keyed sleeper's seq reproduces the DES event queue's
// schedule order exactly — the deterministic (stream, seq) tie-break
// both backends share (see DESIGN.md §10).
const unkeyed = 1 << 63

// clock is the virtual-time coordinator. Every goroutine participating
// in a run is registered (spawn/exit) and is, at any moment, either
// runnable — executing code, or blocked on an ordinary mutex another
// runnable goroutine holds — or parked on its waiter. The clock
// advances only when the runnable count reaches zero: it then jumps to
// the earliest pending wake-up and releases every sleeper due at that
// instant at once, so same-time events execute with real concurrency.
//
// A release is the only way a parked goroutine becomes runnable again,
// and the release itself counts it runnable, under mu. So a goroutine
// that hands work to another (Serve, a lock grant) does not wake it: it
// schedules the other's sleeper, and the clock releases that sleeper
// when its instant comes like any other.
type clock struct {
	mu       sync.Mutex
	now      des.Time
	horizon  des.Time
	runnable int
	sleepers des.Queue[*waiter] // by (at, tie); see unkeyed
	waiters  []*waiter          // every slot stop must reach
	seq      uint64
	fired    uint64
	stopped  bool
}

func newClock(horizon des.Time) *clock {
	return &clock{horizon: horizon}
}

// newWaiter makes a wake slot for a goroutine of this run; call it
// before the goroutine starts.
func (c *clock) newWaiter() *waiter {
	w := &waiter{ch: make(chan bool, 1)}
	c.mu.Lock()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	return w
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
// (the live analogue of the DES event queue's depth).
func (c *clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sleepers.Len()
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

// sleep blocks the caller, whose slot is w, for d of virtual time. It
// returns false when the run stopped instead (the caller should unwind).
func (c *clock) sleep(w *waiter, d des.Time) bool {
	c.mu.Lock()
	return c.sleepAtLocked(w, c.now+d, false)
}

// sleepKeyed is sleep for ordered event sources: the sleeper releases
// serially in deterministic (at, seq) order ahead of any same-instant
// unkeyed sleepers (see unkeyed).
func (c *clock) sleepKeyed(w *waiter, d des.Time) bool {
	c.mu.Lock()
	return c.sleepAtLocked(w, c.now+d, true)
}

// sleepUntil blocks the caller until virtual time at (or now, if at is
// already past). It returns false when the run stopped instead.
func (c *clock) sleepUntil(w *waiter, at des.Time) bool {
	c.mu.Lock()
	return c.sleepAtLocked(w, max(at, c.now), false)
}

// sleepAtLocked registers the caller as a sleeper due at the absolute
// instant at and parks it. Called with mu held; unlocks.
func (c *clock) sleepAtLocked(w *waiter, at des.Time, keyed bool) bool {
	c.pushLocked(w, at, keyed)
	return c.parkLocked(w)
}

// preSleep registers a keyed sleeper on behalf of a goroutine that has
// not been spawned (and is not counted runnable) yet; the goroutine
// must wait on w before doing anything else. The caller registers its
// event sources in a fixed order before starting any of them, which
// pins the initial seq assignment — the base case of the keyed
// determinism induction; racing first-sleeps from the sources
// themselves would scramble it.
func (c *clock) preSleep(w *waiter, d des.Time) {
	c.register(w, d, true)
}

// schedule registers a sleeper, due d from now, on behalf of the
// goroutine whose slot is w, which is parked or parks before it next
// touches the clock: the clock releases it then, as if it had slept d
// itself. The caller must be runnable, so the clock cannot pass the
// instant before the sleeper is queued.
func (c *clock) schedule(w *waiter, d des.Time) {
	c.register(w, d, false)
}

// register pushes a sleeper for w, due d from now, without touching the
// runnable count.
func (c *clock) register(w *waiter, d des.Time, keyed bool) {
	c.mu.Lock()
	c.pushLocked(w, c.now+d, keyed)
	c.mu.Unlock()
}

// park blocks the caller, whose slot is w, until the clock releases a
// sleeper registered on its behalf (schedule). Unlike sleep, it
// registers no due time of its own. It returns false when the run
// stopped instead.
func (c *clock) park(w *waiter) bool {
	c.mu.Lock()
	return c.parkLocked(w)
}

// parkLocked counts the caller out of the runnables, lets the clock
// advance, and waits on w. Once the clock has stopped it returns false
// at once: the caller's slot may be empty even so, because stop skips a
// slot whose release the caller had not yet received. Called with mu
// held; unlocks.
func (c *clock) parkLocked(w *waiter) bool {
	if c.stopped {
		c.mu.Unlock()
		return false
	}
	c.runnable--
	c.advanceLocked()
	c.mu.Unlock()
	return w.wait()
}

// stop freezes the clock and releases every goroutine of the run with a
// "run over" signal. Idempotent.
func (c *clock) stop() {
	c.mu.Lock()
	c.stopLocked()
	c.mu.Unlock()
}

// stopLocked sends false to every slot. A full slot holds a release its
// goroutine has not received yet; that goroutine runs on and finds the
// clock stopped at its next sleep or park.
func (c *clock) stopLocked() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, w := range c.waiters {
		select {
		case w.ch <- false:
		default:
		}
	}
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
	if c.sleepers.Len() == 0 {
		c.now = c.horizon
		c.stopLocked()
		return
	}
	t, tie := c.sleepers.Min()
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
	if tie&unkeyed == 0 {
		c.releaseLocked()
		return
	}
	for c.sleepers.Len() > 0 {
		if at, _ := c.sleepers.Min(); at != t {
			break
		}
		c.releaseLocked()
	}
}

// releaseLocked pops the top sleeper, counts its goroutine runnable and
// sends to its slot.
func (c *clock) releaseLocked() {
	_, w := c.sleepers.Pop()
	c.runnable++
	c.fired++
	select {
	case w.ch <- true:
	default:
		panic("live: release found its wake slot full")
	}
}

// pushLocked adds a sleeper for w due at the absolute instant at,
// taking the next registration sequence number. An instant before now,
// or NaN, panics.
func (c *clock) pushLocked(w *waiter, at des.Time, keyed bool) {
	if !(at >= c.now) {
		panic(fmt.Sprintf("live: sleep until %v, not at or after now %v", at, c.now))
	}
	tie := c.seq
	if !keyed {
		tie |= unkeyed
	}
	c.sleepers.Push(at, tie, w)
	c.seq++
}
