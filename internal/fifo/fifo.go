// Package fifo provides Queue, the first-in-first-out queue behind
// every simulator queue: packets waiting for a processor, stacks waiting
// to run and requests waiting for the shared-stack lock.
//
// A Queue keeps its items in fixed-size blocks. Growing links one more
// block and never copies a queued item, so a deep backlog costs its
// contents and no garbage. A block the head has passed goes on the
// queue's own free list, and the tail takes blocks from there before it
// allocates, so traffic that stays below the queue's earlier high-water
// depth allocates nothing.
package fifo

// blockSize is the number of items per block. A power of two splits a
// position into block and offset with a shift and a mask.
const (
	blockShift = 7
	blockSize  = 1 << blockShift
	blockMask  = blockSize - 1
)

type block[T any] [blockSize]T

// Queue is a FIFO queue of T. The zero value is an empty queue ready to
// use. Push, Pop, Len, Front and At take O(1) time.
//
// Memory: a queue of depth n holds at most ⌈n/blockSize⌉ + 1 blocks in
// use (the head block may be partly consumed), and over its lifetime it
// allocates no more blocks than its busiest moment held in use, because
// retired blocks are reused and never released.
type Queue[T any] struct {
	dir   []*block[T] // dir[first:] are the blocks in use, oldest first
	first int         // index in dir of the head's block
	head  int         // offset of the head item in dir[first]
	n     int         // items queued
	free  []*block[T] // retired blocks, taken before allocating
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// slot returns the storage of the item at position i (0 = head).
func (q *Queue[T]) slot(i int) *T {
	p := q.head + i
	return &q.dir[q.first+p>>blockShift][p&blockMask]
}

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if p := q.head + q.n; p>>blockShift == len(q.dir)-q.first {
		q.addBlock()
	}
	*q.slot(q.n) = v
	q.n++
}

// addBlock links a block at the tail, from the free list if it has one.
// When the directory is full and its retired prefix is at least as long
// as its live part, the live entries slide down instead of the
// directory growing; the slide moves no more entries than retirements
// have freed, so retiring a block stays amortised O(1).
func (q *Queue[T]) addBlock() {
	var b *block[T]
	if k := len(q.free) - 1; k >= 0 {
		b = q.free[k]
		q.free = q.free[:k]
	} else {
		b = new(block[T])
	}
	if len(q.dir) == cap(q.dir) && q.first > 0 && 2*q.first >= len(q.dir) {
		n := copy(q.dir, q.dir[q.first:])
		clear(q.dir[n:])
		q.dir = q.dir[:n]
		q.first = 0
	}
	q.dir = append(q.dir, b)
}

// Pop removes and returns the head item, or reports false when the
// queue is empty. An emptied queue keeps its last block in place for
// the next Push.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	b := q.dir[q.first]
	h := q.head & blockMask
	v = b[h]
	var zero T
	b[h] = zero // release what the item references
	q.n--
	q.head++
	if q.n == 0 {
		q.head = 0
	} else if q.head == blockSize {
		q.retire()
	}
	return v, true
}

// retire moves the head block, which Pop has just emptied, to the free
// list.
func (q *Queue[T]) retire() {
	q.free = append(q.free, q.dir[q.first])
	q.dir[q.first] = nil
	q.first++
	q.head = 0
}

// At returns the item at position i (0 = head). It panics unless
// 0 ≤ i < Len().
func (q *Queue[T]) At(i int) T {
	if uint(i) >= uint(q.n) {
		panic("fifo: index out of range")
	}
	return *q.slot(i)
}

// Front returns the head item, At(0).
func (q *Queue[T]) Front() T { return q.At(0) }

// IndexFunc returns the position of the first of the first limit items
// for which f returns true, or -1 if none does.
func (q *Queue[T]) IndexFunc(limit int, f func(T) bool) int {
	for i := range min(limit, q.n) {
		if f(*q.slot(i)) {
			return i
		}
	}
	return -1
}

// RemoveAt removes and returns the item at position i (0 = head). The i
// items ahead of it move back one place; the items behind it do not
// move, so the cost is O(i) however long the queue is.
func (q *Queue[T]) RemoveAt(i int) T {
	v := q.At(i)
	for ; i > 0; i-- {
		*q.slot(i) = *q.slot(i - 1)
	}
	q.Pop()
	return v
}

// Filter keeps the items for which keep returns true, in their order,
// and removes the others. keep sees every item once, head to tail, so
// it may hand the items it rejects to another queue; it must not touch
// q itself.
func (q *Queue[T]) Filter(keep func(T) bool) {
	w := 0
	for r := range q.n {
		if v := *q.slot(r); keep(v) {
			*q.slot(w) = v
			w++
		}
	}
	var zero T
	for i := w; i < q.n; i++ {
		*q.slot(i) = zero
	}
	// Retire the blocks past the new tail; like Pop, an emptied queue
	// keeps its head block.
	inUse := q.first + max((q.head+w+blockMask)>>blockShift, 1)
	for k := len(q.dir) - 1; k >= inUse; k-- {
		q.free = append(q.free, q.dir[k])
		q.dir[k] = nil
		q.dir = q.dir[:k]
	}
	q.n = w
	if w == 0 {
		q.head = 0
	}
}
