package des

import "affinity/internal/fifo"

// Resource is a FIFO-queued resource with a fixed number of units,
// e.g. a lock (capacity 1). AcquireArg requests are granted in arrival
// order; a grant runs synchronously, inside the handler whose
// AcquireArg or Release made the unit available, so it happens at that
// simulation instant.
type Resource struct {
	capacity int
	inUse    int
	waiters  fifo.Queue[waiter]
}

// waiter is one queued acquire request.
type waiter struct {
	fn  ArgHandler
	arg any
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
	r.waiters.Push(waiter{fn: fn, arg: arg})
}

// Release returns one unit, handing it to the longest-waiting acquirer
// if any.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("des: release of idle resource")
	}
	if w, ok := r.waiters.Pop(); ok {
		w.fn(w.arg)
		return
	}
	r.inUse--
}
