package des

import (
	"math"
	"math/bits"
)

// Queue is a min-priority queue of values keyed by (time, tie): the
// earliest time first and, among equal times, the smaller tie word. It
// is the one event list of both backends: the Simulator keys its
// pending events by (at, seq), and the live backend's clock keys its
// sleepers the same way with sources-first folded into the tie word.
//
// It is a 4-ary min-heap whose entries carry their key inline, so a
// compare reads no payload. A time is stored as its IEEE 754 bit
// pattern, which for non-negative floats orders as an unsigned integer
// exactly as the floats do; (at, tie) is then one 128-bit key, and a
// compare is one 128-bit subtraction whose borrow is the answer. A pop
// picks the least of four children with borrow masks instead of
// branches (on event times that pick is a coin flip, which a branch
// predictor loses), walks the hole left at the root down to a leaf, and
// sifts the last entry up from there; being a late event more often
// than not, it seldom climbs.
//
// Times must be non-negative and not NaN; callers refuse the rest
// before pushing. −0 is folded to +0. Entries with equal keys pop in no
// fixed order, so callers keep keys unique.
type Queue[T any] struct {
	h []entry[T]
}

type entry[T any] struct {
	at, tie uint64
	v       T
}

// before is 1 if key (aAt, aTie) precedes (bAt, bTie) and 0 otherwise:
// the borrow out of the 128-bit subtraction a − b.
func before(aAt, aTie, bAt, bTie uint64) uint64 {
	_, borrow := bits.Sub64(aTie, bTie, 0)
	_, borrow = bits.Sub64(aAt, bAt, borrow)
	return borrow
}

// Len returns the number of entries queued.
func (q *Queue[T]) Len() int { return len(q.h) }

// Min returns the key of the least entry. The queue must not be empty.
func (q *Queue[T]) Min() (Time, uint64) {
	return Time(math.Float64frombits(q.h[0].at)), q.h[0].tie
}

// Push adds v under the key (at, tie).
func (q *Queue[T]) Push(at Time, tie uint64, v T) {
	q.h = append(q.h, entry[T]{})
	q.up(len(q.h)-1, entry[T]{math.Float64bits(float64(at)) &^ (1 << 63), tie, v})
}

// Pop removes the least entry and returns its time and value. The queue
// must not be empty.
func (q *Queue[T]) Pop() (Time, T) {
	h := q.h
	top, n := h[0], len(h)-1
	last := h[n]
	h[n] = entry[T]{}
	h = h[:n]
	q.h = h
	if n > 0 {
		i := 0
		for c := 1; c < n; c = i<<2 + 1 {
			m := c
			if c+3 < n {
				// The lesser of each pair of children, then of the two.
				a := c + int(before(h[c+1].at, h[c+1].tie, h[c].at, h[c].tie))
				b := c + 2 + int(before(h[c+3].at, h[c+3].tie, h[c+2].at, h[c+2].tie))
				m = a ^ (a^b)&-int(before(h[b].at, h[b].tie, h[a].at, h[a].tie))
			} else {
				// The last, partial family: its children are leaves.
				for j := c + 1; j < n; j++ {
					if before(h[j].at, h[j].tie, h[m].at, h[m].tie) != 0 {
						m = j
					}
				}
			}
			h[i] = h[m]
			i = m
		}
		q.up(i, last)
	}
	return Time(math.Float64frombits(top.at)), top.v
}

// up puts e in the hole at i, first moving down every ancestor whose key
// is greater.
func (q *Queue[T]) up(i int, e entry[T]) {
	h := q.h
	for i > 0 {
		p := (i - 1) >> 2
		if before(e.at, e.tie, h[p].at, h[p].tie) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}
