package fifo

import (
	"math/rand"
	"slices"
	"testing"
)

// owned returns how many blocks q holds, in use or on its free list.
// Blocks are never released, so this is also how many it allocated.
func (q *Queue[T]) owned() int { return len(q.dir) - q.first + len(q.free) }

// blocksFor is ⌈n/blockSize⌉.
func blocksFor(n int) int { return (n + blockMask) / blockSize }

// model drives a Queue and a plain slice through the same operations
// and fails the test on the first difference.
type model struct {
	t    testing.TB
	q    Queue[int]
	want []int
	next int // next value to push; values are distinct
	high int // high-water depth
}

func (m *model) push() {
	m.q.Push(m.next)
	m.want = append(m.want, m.next)
	m.next++
	m.high = max(m.high, len(m.want))
}

func (m *model) pop() {
	got, ok := m.q.Pop()
	if len(m.want) == 0 {
		if ok {
			m.t.Fatalf("Pop on empty queue returned %d, true", got)
		}
		return
	}
	if !ok || got != m.want[0] {
		m.t.Fatalf("Pop = %d, %v; want %d, true", got, ok, m.want[0])
	}
	m.want = m.want[1:]
}

func (m *model) removeAt(i int) {
	if len(m.want) == 0 {
		return
	}
	i %= len(m.want)
	if got := m.q.RemoveAt(i); got != m.want[i] {
		m.t.Fatalf("RemoveAt(%d) = %d, want %d", i, got, m.want[i])
	}
	m.want = slices.Delete(m.want, i, i+1)
}

// filter removes the items divisible by k and checks that the rejected
// items reach keep in order.
func (m *model) filter(k int) {
	var gotOut, wantOut []int
	m.q.Filter(func(v int) bool {
		if v%k == 0 {
			gotOut = append(gotOut, v)
			return false
		}
		return true
	})
	m.want = slices.DeleteFunc(m.want, func(v int) bool {
		if v%k == 0 {
			wantOut = append(wantOut, v)
			return true
		}
		return false
	})
	if !slices.Equal(gotOut, wantOut) {
		m.t.Fatalf("Filter rejected %v, want %v", gotOut, wantOut)
	}
}

func (m *model) index(limit, k int) {
	f := func(v int) bool { return v%k == 0 }
	want := slices.IndexFunc(m.want[:min(max(limit, 0), len(m.want))], f)
	if got := m.q.IndexFunc(limit, f); got != want {
		m.t.Fatalf("IndexFunc(%d, %%%d) = %d, want %d", limit, k, got, want)
	}
}

// checkAll compares every item against the model, then runs check.
func (m *model) checkAll() {
	m.t.Helper()
	for i, w := range m.want[:min(len(m.want), m.q.Len())] {
		if got := m.q.At(i); got != w {
			m.t.Fatalf("At(%d) = %d, want %d", i, got, w)
		}
	}
	m.check()
}

// check compares the length and head against the model and checks the
// block bounds.
func (m *model) check() {
	m.t.Helper()
	if m.q.Len() != len(m.want) {
		m.t.Fatalf("Len = %d, want %d", m.q.Len(), len(m.want))
	}
	if len(m.want) > 0 && m.q.Front() != m.want[0] {
		m.t.Fatalf("Front = %d, want %d", m.q.Front(), m.want[0])
	}
	if inUse := len(m.q.dir) - m.q.first; inUse > max(blocksFor(len(m.want))+1, 1) {
		m.t.Fatalf("%d blocks in use at depth %d", inUse, len(m.want))
	}
	if got, limit := m.q.owned(), blocksFor(m.high)+1; got > limit {
		m.t.Fatalf("owns %d blocks after high-water depth %d, want at most %d", got, m.high, limit)
	}
	if m.q.head < 0 || m.q.head >= blockSize || (m.q.n == 0 && m.q.head != 0) {
		m.t.Fatalf("head offset %d at depth %d", m.q.head, m.q.n)
	}
}

// step applies one operation chosen by op, with argument arg.
func (m *model) step(op, arg byte) {
	switch op % 8 {
	case 0, 1, 2:
		for range int(arg)%(2*blockSize) + 1 {
			m.push()
		}
	case 3, 4:
		for range int(arg)%(2*blockSize) + 1 {
			m.pop()
		}
	case 5:
		m.removeAt(int(arg))
	case 6:
		m.filter(int(arg)%5 + 2)
	case 7:
		m.index(int(arg)%16-1, int(arg)%3+2)
	}
}

func TestQueueMatchesSlice(t *testing.T) {
	m := &model{t: t}
	m.checkAll()
	if _, ok := m.q.Pop(); ok {
		t.Fatal("Pop on the zero Queue reported an item")
	}
	// Grow across several blocks, drain to empty in mid-block, refill.
	for range 3*blockSize + 5 {
		m.push()
	}
	m.checkAll()
	for range blockSize + 3 {
		m.pop()
	}
	m.checkAll()
	m.removeAt(blockSize - 1) // straddles the head block's end
	m.removeAt(2*blockSize + 1)
	m.checkAll()
	m.filter(3)
	m.checkAll()
	for m.q.Len() > 0 {
		m.pop()
	}
	m.checkAll()
	for range 2*blockSize + 7 {
		m.push()
	}
	m.checkAll()
	m.filter(1) // rejects everything
	m.checkAll()
	for range blockSize + 1 {
		m.push()
	}
	m.checkAll()

	rng := rand.New(rand.NewSource(1))
	for range 20_000 {
		m.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
		m.checkAll()
	}
}

func TestQueueAtPanicsOutOfRange(t *testing.T) {
	var q Queue[int]
	q.Push(1)
	for _, i := range []int{-1, 1, blockSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a 1-item queue did not panic", i)
				}
			}()
			q.At(i)
		}()
	}
}

// TestQueueFilterReleasesReferences checks that removed items' slots are
// cleared, so a queue of pointers does not keep them alive.
func TestQueueFilterReleasesReferences(t *testing.T) {
	var q Queue[*int]
	for i := range 3 * blockSize {
		q.Push(&i)
	}
	q.Pop()
	q.Filter(func(p *int) bool { return *p%2 == 0 })
	for _, b := range append(q.free, q.dir...) {
		if b == nil {
			continue
		}
		for i, p := range b {
			if p != nil && *p%2 != 0 {
				t.Fatalf("removed item %d still referenced from a block slot %d", *p, i)
			}
		}
	}
	for range q.Len() {
		q.Pop()
	}
	for _, b := range append(q.free, q.dir...) {
		if b != nil && *b != (block[*int]{}) {
			t.Fatal("a drained queue still references items")
		}
	}
}

func TestQueueAllocations(t *testing.T) {
	for _, n := range []int{1, blockSize - 1, blockSize, blockSize + 1, 1000, 50_000} {
		var q Queue[int]
		for i := range n {
			q.Push(i)
		}
		if got := q.owned(); got != blocksFor(n) {
			t.Errorf("reaching depth %d allocated %d blocks, want %d", n, got, blocksFor(n))
		}
	}

	// Steady traffic below the high-water depth allocates nothing: a
	// full drain and refill, and a sliding window that retires and
	// reuses blocks and slides the directory.
	var q Queue[int]
	cycle := func() {
		for i := range 1000 {
			q.Push(i)
		}
		for range 1000 {
			q.Pop()
		}
	}
	cycle()
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Errorf("drain/refill cycle: %v allocs per run, want 0", got)
	}
	for i := range 300 {
		q.Push(i)
	}
	window := func() {
		for i := range 10_000 {
			q.Push(i)
			q.Pop()
		}
	}
	window()
	if got := testing.AllocsPerRun(20, window); got != 0 {
		t.Errorf("sliding window: %v allocs per run, want 0", got)
	}
	if got := q.owned(); got > blocksFor(1000)+1 {
		t.Errorf("owns %d blocks after a high-water depth of 1000", got)
	}
}

func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 200, 3, 10, 5, 1, 6, 4, 7, 9})
	f.Add([]byte{1, 255, 1, 255, 3, 255, 5, 130, 6, 0, 4, 255, 0, 1})
	f.Add([]byte{2, 127, 2, 0, 3, 127, 3, 0, 0, 128, 6, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &model{t: t}
		for i := 0; i+1 < len(ops); i += 2 {
			m.step(ops[i], ops[i+1])
			m.check()
		}
		m.checkAll()
	})
}
