package des

// Resource is a FIFO-queued resource with a fixed number of units,
// e.g. a lock (capacity 1). AcquireArg requests are granted in arrival
// order; a grant runs synchronously, inside the handler whose
// AcquireArg or Release made the unit available, so it happens at that
// simulation instant.
type Resource struct {
	capacity int
	inUse    int
	waiters  waiterQueue
}

// waiter is one queued acquire request.
type waiter struct {
	fn  ArgHandler
	arg any
}

// waiterQueue is a slice-backed FIFO that recycles its backing array:
// popped slots are cleared and the head index advances, and the array
// resets to the front whenever the queue drains, so steady-state
// acquire/release traffic stops allocating.
type waiterQueue struct {
	buf  []waiter
	head int
}

func (q *waiterQueue) len() int { return len(q.buf) - q.head }

func (q *waiterQueue) push(w waiter) { q.buf = append(q.buf, w) }

func (q *waiterQueue) pop() waiter {
	w := q.buf[q.head]
	q.buf[q.head] = waiter{}
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return w
}

// NewResource returns a resource with the given capacity.
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	return &Resource{capacity: capacity}
}

// AcquireArg requests one unit and calls fn(arg) when it is allocated —
// at once if a unit is free, else when a Release hands one over. With a
// non-capturing fn and a pooled arg it performs no allocation, queued or
// not, so per-packet lock traffic stays allocation-free.
func (r *Resource) AcquireArg(fn ArgHandler, arg any) {
	if r.inUse < r.capacity {
		r.inUse++
		fn(arg)
		return
	}
	r.waiters.push(waiter{fn: fn, arg: arg})
}

// Release returns one unit, handing it to the longest-waiting acquirer
// if any.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("des: release of idle resource")
	}
	if r.waiters.len() > 0 {
		w := r.waiters.pop()
		w.fn(w.arg)
		return
	}
	r.inUse--
}
