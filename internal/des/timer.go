package des

import (
	"fmt"
	"math"
)

// Timer is an event source with at most one firing pending: an arrival
// stream whose handler draws and arms its next arrival, or a processor
// whose handler ends one service interval and may arm the next. It
// calls one fixed handler, fn(arg), each time it fires.
//
// A timer owns one leaf of a winner tree for the life of its
// Simulator. Arm writes the leaf's (time, seq) key and replays the
// leaf's path to the root, comparing one sibling per level with the
// same borrow masks the heap uses; the root is the earliest armed
// timer. A timer fires in place: its key stays in the tree while its
// handler runs, re-arming it from that handler replays its path once,
// and a handler that returns without re-arming leaves it idle, which
// costs one replay of a never-firing key. Any handler may arm any idle
// timer — a lock release arms the processor it grants the lock to.
//
// A timer's key comes from the same seq counter as ScheduleArg's, so
// timers and one-shot events fire in one (time, seq) order, exactly as
// if every firing had been scheduled through ScheduleArg.
type Timer struct {
	fn    ArgHandler
	arg   any
	leaf  int32
	armed bool
}

// node is one winner-tree slot: the least key of its subtree and the
// leaf that holds it.
type node struct {
	at, tie uint64
	leaf    int32
}

// idleKey is an idle leaf's time and tie word. A pending time is never
// negative and never NaN, so its bits sit below 1<<63 and an idle leaf
// loses every comparison with an armed one.
const idleKey = math.MaxUint64

// NewTimer returns an idle timer that calls fn(arg) each time it fires.
// Create a run's timers before it arms the first: adding a leaf beyond
// the tree's width rebuilds the tree.
func (s *Simulator) NewTimer(fn ArgHandler, arg any) *Timer {
	if fn == nil {
		panic("des: nil handler")
	}
	t := &Timer{fn: fn, arg: arg, leaf: int32(len(s.timers))}
	s.timers = append(s.timers, t)
	if int(s.width) < len(s.timers) {
		s.grow()
	}
	return t
}

// grow doubles the tree's leaf count until every timer has a leaf, and
// rebuilds its inner nodes from the leaves.
func (s *Simulator) grow() {
	w := max(s.width, 1)
	for int(w) < len(s.timers) {
		w <<= 1
	}
	tree := make([]node, 2*w)
	for i := range w {
		tree[w+i] = node{idleKey, idleKey, i}
		if i < s.width {
			tree[w+i] = s.tree[s.width+i]
		}
	}
	for i := w - 1; i >= 1; i-- {
		a, b := tree[2*i], tree[2*i+1]
		if before(b.at, b.tie, a.at, a.tie) != 0 {
			a = b
		}
		tree[i] = a
	}
	s.tree, s.width = tree, w
}

// Arm schedules t to fire after delay. The delay must be non-negative
// and not NaN, and t must not already be pending; either is an error in
// the caller and panics. A timer firing now is not pending, so its own
// handler may arm it again.
func (s *Simulator) Arm(t *Timer, delay Time) {
	if !(delay >= 0) {
		panic(fmt.Sprintf("des: arm with delay %v", delay))
	}
	if t.armed {
		panic("des: timer armed while pending")
	}
	t.armed = true
	s.armed++
	n := &s.tree[s.width+t.leaf]
	n.at = math.Float64bits(float64(s.now+delay)) &^ (1 << 63)
	n.tie = s.seq
	s.seq++
	s.replay(t.leaf)
}

// replay recomputes the winners on leaf's path to the root, one sibling
// compare per level, with no branch on the outcome.
func (s *Simulator) replay(leaf int32) {
	tree := s.tree
	i := s.width + leaf
	w := tree[i]
	for i > 1 {
		o := &tree[i^1]
		m := -before(o.at, o.tie, w.at, w.tie)
		w.at ^= (w.at ^ o.at) & m
		w.tie ^= (w.tie ^ o.tie) & m
		w.leaf ^= (w.leaf ^ o.leaf) & int32(m)
		i >>= 1
		tree[i] = w
	}
}

// timerNext reports whether the next firing is a timer's: the tree's
// root precedes the heap's least event, or the heap is empty. At least
// one timer must be armed.
func (s *Simulator) timerNext() bool {
	if len(s.events.h) == 0 {
		return true
	}
	r, e := &s.tree[1], &s.events.h[0]
	return before(r.at, r.tie, e.at, e.tie) != 0
}

// fireTimer fires the tree's root in place: the timer stops counting as
// pending while its handler runs, and goes idle afterwards unless the
// handler armed it again.
func (s *Simulator) fireTimer() {
	r := &s.tree[1]
	t := s.timers[r.leaf]
	s.now = Time(math.Float64frombits(r.at))
	s.fired++
	t.armed = false
	s.armed--
	t.fn(t.arg)
	if !t.armed {
		n := &s.tree[s.width+t.leaf]
		n.at, n.tie = idleKey, idleKey
		s.replay(t.leaf)
	}
}
