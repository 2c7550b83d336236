// Package live is the concurrent execution backend: it drives the
// discrete-event simulator's own host core (sim.Host — queues,
// dispatch policies, cost-model charging, statistics) on real
// goroutines — one worker per simulated processor and nothing else, a
// real mutex guarding the host. Only the clock differs from the DES.
//
// Time is virtual. A run does not sleep wall-clock microseconds;
// instead every worker that would wait (for a service time to elapse,
// for work to arrive, for the shared-stack lock) parks on its own wake
// slot, and only the run's virtual clock releases it. The clock
// advances to the earliest pending instant only when every worker is
// parked. That makes a live run complete as fast as the hardware allows
// while preserving the simulated timescale, exactly like a
// conservatively synchronized parallel simulation.
//
// The event sources — arrival streams, fault-plan events and the gauge
// sampler — are not goroutines. The clock fires each one itself, on
// whichever worker advanced it, one at a time in the DES's (time, seq)
// schedule order and ahead of the workers due at the same instant (see
// unkeyed). What the virtual clock does NOT serialize is workers woken
// at the same virtual instant: they run concurrently on real OS threads
// and contend for the dispatch lock in hardware order.
//
// Where no two events share an instant, a live run is therefore
// bit-identical to the DES run of the same Params (every Results field
// but EventsFired), run after run — the differential harness
// (differ_test.go) asserts this on every tie-free point. Where a source
// ties with a completion (same-rate CBR, batch arrivals), the live
// clock fires the source first while the DES goes by insertion order,
// and the backends agree statistically. DESIGN.md §10 states what is
// compared, and how tightly.
package live

import (
	"fmt"
	"sync"

	"affinity/internal/des"
)

// waiter is one worker's wake slot, made once before the worker starts
// and reused for its whole life. The worker blocks only by receiving
// from its own slot: the clock sends true when a sleeper scheduled on
// its behalf is due, and stop sends false. A worker has at most one
// sleeper pending, and the clock releases it only after the worker has
// parked, so a release always finds the slot empty.
type waiter struct{ ch chan bool }

// wait blocks until the clock releases the slot; false means the run
// stopped.
func (w *waiter) wait() bool { return <-w.ch }

// source is an event source the clock fires itself: an arrival stream,
// a fault-plan event or the gauge sampler. fire runs at the source's
// instant and returns the delay to its next firing, or false if it has
// none.
type source interface {
	fire(now des.Time) (next des.Time, again bool)
}

// sleeper is one entry of the clock's queue: a worker's wake slot, or
// a source.
type sleeper struct {
	w   *waiter
	src source
}

// unkeyed marks the tie word of a worker's sleeper. A source's tie is
// its registration seq alone, so at one instant every source sorts
// ahead of every worker, and each kind sorts by seq. Sources register
// their first firing in the DES runner's order and re-register each
// next one as they fire, one at a time in (at, seq) order, so a
// source's seq reproduces the DES event queue's schedule order exactly
// — the deterministic tie-break both backends share (see DESIGN.md
// §10).
const unkeyed = 1 << 63

// clock is the virtual-time coordinator. Every worker of a run is
// registered (spawn/exit) and is, at any moment, either runnable —
// executing code, or blocked on an ordinary mutex another runnable
// goroutine holds — or parked on its waiter. The clock advances only
// when the runnable count reaches zero: it then jumps to the earliest
// pending instant, fires the sources due there one at a time, and then
// releases every worker due there at once, so same-time work executes
// with real concurrency.
//
// A release is the only way a parked worker becomes runnable again, and
// the release itself counts it runnable, under mu. So code that hands
// work to a worker (a new job, a lock grant) does not wake it: it
// schedules the worker's sleeper, and the clock releases that sleeper
// when its instant comes like any other.
type clock struct {
	mu       sync.Mutex
	now      des.Time
	horizon  des.Time
	runnable int
	sleepers des.Queue[sleeper] // by (at, tie); see unkeyed
	waiters  []*waiter          // every slot stop must reach
	seq      uint64
	fired    uint64
	stopped  bool
}

func newClock(horizon des.Time) *clock {
	return &clock{horizon: horizon}
}

// newWaiter makes a wake slot for a worker of this run; call it before
// the worker starts.
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

// Fired returns how many virtual timer events have fired: source
// firings and worker releases.
func (c *clock) Fired() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// Pending returns the number of sleepers queued (the live analogue of
// the DES event queue's depth).
func (c *clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sleepers.Len()
}

// spawn registers n workers about to start; call before `go`.
func (c *clock) spawn(n int) {
	c.mu.Lock()
	c.runnable += n
	c.mu.Unlock()
}

// exit unregisters the calling worker.
func (c *clock) exit() {
	c.mu.Lock()
	c.runnable--
	c.advanceLocked()
	c.mu.Unlock()
}

// fireAt registers src to fire at the absolute instant at. A run
// registers its sources in a fixed order before any worker starts,
// which pins their first seqs to the DES's schedule order.
func (c *clock) fireAt(at des.Time, src source) {
	c.mu.Lock()
	c.pushLocked(at, 0, sleeper{src: src})
	c.mu.Unlock()
}

// schedule registers a sleeper, due d from now, on behalf of the worker
// whose slot is w, which is parked or parks before it next touches the
// clock: the clock releases it then. The caller must be runnable (or
// firing a source), so the clock cannot pass the instant before the
// sleeper is queued.
func (c *clock) schedule(w *waiter, d des.Time) {
	c.mu.Lock()
	c.pushLocked(c.now+d, unkeyed, sleeper{w: w})
	c.mu.Unlock()
}

// park blocks the caller, whose slot is w, until the clock releases a
// sleeper scheduled on its behalf: it counts the caller out of the
// runnables, lets the clock advance, and waits on w. It returns false
// when the run stopped instead — at once if the clock had already
// stopped, because the caller's slot may be empty even so: stop skips a
// slot whose release the caller had not yet received.
func (c *clock) park(w *waiter) bool {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return false
	}
	c.runnable--
	c.advanceLocked()
	c.mu.Unlock()
	return w.wait()
}

// stop freezes the clock and releases every worker of the run with a
// "run over" signal. Idempotent.
func (c *clock) stop() {
	c.mu.Lock()
	c.stopLocked()
	c.mu.Unlock()
}

// stopLocked sends false to every slot. A full slot holds a release its
// worker has not received yet; that worker runs on and finds the clock
// stopped at its next park.
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

// advanceLocked advances virtual time when nothing is runnable. At the
// earliest pending instant it first fires the sources due there, one at
// a time in seq order, on the calling goroutine: that goroutine counts
// itself runnable while a source fires, so the clock holds at the
// instant while mu is dropped for the host call. Then it releases every
// worker due at the instant together. Crossing the horizon, or full
// quiescence (nothing runnable AND nothing queued — nothing can ever
// happen again), ends the run; DES RunUntil semantics put the clock at
// the horizon in both cases. Called with mu held; returns with it held.
func (c *clock) advanceLocked() {
	for c.runnable == 0 && !c.stopped {
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
		if tie&unkeyed == 0 {
			_, s := c.sleepers.Pop()
			c.fired++
			c.runnable++
			c.mu.Unlock()
			next, again := s.src.fire(t)
			c.mu.Lock()
			c.runnable--
			if again {
				c.pushLocked(t+next, 0, s)
			}
			continue
		}
		for c.sleepers.Len() > 0 {
			if at, _ := c.sleepers.Min(); at != t {
				break
			}
			_, s := c.sleepers.Pop()
			c.runnable++
			c.fired++
			select {
			case s.w.ch <- true:
			default:
				panic("live: release found its wake slot full")
			}
		}
	}
}

// pushLocked queues s due at the absolute instant at, under the next
// registration seq with mark (0 or unkeyed) or-ed in. An instant before
// now, or NaN, panics.
func (c *clock) pushLocked(at des.Time, mark uint64, s sleeper) {
	if !(at >= c.now) {
		panic(fmt.Sprintf("live: sleeper due at %v, not at or after now %v", at, c.now))
	}
	c.sleepers.Push(at, c.seq|mark, s)
	c.seq++
}
