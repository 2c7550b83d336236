package sched

import "affinity/internal/fifo"

// homeTable is the placement state of the five static-home policies:
// Wired-Streams, ThreadPools, IPS-Wired, RSS and Flow Director. Each
// slot (a stream, a stack or an indirection-table bucket) has a current
// processor and a failback processor, the one it returns to when that
// processor recovers; -1, or a slot past the end, is unset. A fault
// moves the slots on the failed processor to the live ones round-robin
// from one cursor, in ascending slot order, so re-homing is
// deterministic. Each policy keeps its own rule for homing new work and
// its own queues.
type homeTable struct {
	cur, home lastRan
	live      []bool
	nlive     int
	cursor    int // the next processor the round-robin tries
	last      int // the processor that went down most recently
}

// newHomeTable homes slot i on processor i mod procs, with every
// processor live.
func newHomeTable(slots, procs int) homeTable {
	t := homeTable{cur: make(lastRan, slots), home: make(lastRan, slots),
		live: make([]bool, procs), nlive: procs}
	for i := range t.cur {
		t.cur[i], t.home[i] = i%procs, i%procs
	}
	for i := range t.live {
		t.live[i] = true
	}
	return t
}

// next advances the cursor past the next live processor and returns
// it. With none live it returns the processor that failed last, where
// all other work waits too.
func (t *homeTable) next() int {
	if t.nlive == 0 {
		return t.last
	}
	for {
		p := t.cursor % len(t.live)
		t.cursor++
		if t.live[p] {
			return p
		}
	}
}

// down takes proc out of the live set and re-homes its slots.
func (t *homeTable) down(proc int) {
	if t.live[proc] {
		t.live[proc] = false
		t.nlive--
	}
	t.last = proc
	t.rehome(t.cur, proc)
}

// rehome moves every entry of slots that names proc to the next live
// processor. With no processor live the entries stay on proc: there is
// nowhere better for the work to wait, and recovery finds it in place.
func (t *homeTable) rehome(slots []int, proc int) {
	if t.nlive == 0 {
		return
	}
	for i, p := range slots {
		if p == proc {
			slots[i] = t.next()
		}
	}
}

// up returns proc to the live set and moves every slot whose failback
// processor is proc back to it, reporting whether any slot moved.
func (t *homeTable) up(proc int) bool {
	if !t.live[proc] {
		t.live[proc] = true
		t.nlive++
	}
	moved := false
	for i, h := range t.home {
		if h == proc && t.cur[i] != proc {
			t.cur[i] = proc
			moved = true
		}
	}
	return moved
}

// spill moves every item in queues[proc] whose home is no longer proc
// to its home's queue, in arrival order.
func spill[T any](queues []fifo.Queue[T], proc int, home func(T) int) {
	queues[proc].Filter(func(v T) bool {
		h := home(v)
		if h == proc {
			return true
		}
		queues[h].Push(v)
		return false
	})
}

// pull moves every item whose home is now proc from the other queues to
// queues[proc], queue by queue in ascending order and each in arrival
// order.
func pull[T any](queues []fifo.Queue[T], proc int, home func(T) int) {
	for q := range queues {
		if q == proc {
			continue
		}
		queues[q].Filter(func(v T) bool {
			if home(v) == proc {
				queues[proc].Push(v)
				return false
			}
			return true
		})
	}
}
