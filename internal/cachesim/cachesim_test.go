package cachesim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"affinity/internal/core"
)

// tinyPlatform returns a deliberately small hierarchy so eviction behaviour
// is easy to exercise: 4-set direct-mapped 16B-line L1s, 8-line L2 with
// 64B lines.
func tinyPlatform() core.Platform {
	return core.Platform{
		Processors:   1,
		ClockMHz:     100,
		CyclesPerRef: 5,
		L1I:          core.CacheConfig{SizeBytes: 64, LineBytes: 16, Assoc: 1},
		L1D:          core.CacheConfig{SizeBytes: 64, LineBytes: 16, Assoc: 1},
		L2:           core.CacheConfig{SizeBytes: 512, LineBytes: 64, Assoc: 1},
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	if got := h.Access(0x100, Data); got != Memory {
		t.Fatalf("first access = %v, want Memory", got)
	}
	if got := h.Access(0x100, Data); got != HitL1 {
		t.Fatalf("second access = %v, want HitL1", got)
	}
	if got := h.Access(0x104, Data); got != HitL1 {
		t.Fatalf("same-line access = %v, want HitL1", got)
	}
}

func TestL2HitAfterL1Conflict(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	// 0x000 and 0x040 share L1 set 0 (line addrs 0 and 4, 4 sets) but live
	// in different L2 lines (64B): L2 line addrs 0 and 1.
	h.Access(0x000, Data)
	h.Access(0x040, Data) // evicts 0x000 from L1, both in L2
	if got := h.Access(0x000, Data); got != HitL2 {
		t.Fatalf("conflicting line came back as %v, want HitL2", got)
	}
}

func TestSplitCachesIndependent(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	h.Access(0x000, Instr)
	// Same address as data: misses L1D (split), hits L2.
	if got := h.Access(0x000, Data); got != HitL2 {
		t.Fatalf("data access after instr fetch = %v, want HitL2", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	p := tinyPlatform()
	p.L1D = core.CacheConfig{SizeBytes: 128, LineBytes: 16, Assoc: 2} // 4 sets, 2-way
	h := New(p, DefaultTiming())
	// Three lines in L1D set 0: byte addrs 0, 64, 128.
	h.Access(0, Data)
	h.Access(64, Data)
	h.Access(0, Data)   // 0 becomes MRU; LRU is 64
	h.Access(128, Data) // evicts 64
	if got := h.Access(0, Data); got != HitL1 {
		t.Fatalf("MRU line evicted: %v", got)
	}
	if got := h.Access(64, Data); got == HitL1 {
		t.Fatal("LRU line survived a conflict fill")
	}
}

func TestInclusionInvalidatesL1(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	// L2 has 8 sets of 64B lines; line addrs 0 and 8 conflict (addr 0 and 512).
	h.Access(0, Data) // in L1D and L2
	if got := h.Access(0, Data); got != HitL1 {
		t.Fatal("setup failed")
	}
	h.Access(512, Data) // L2 evicts line 0 → inclusion purges L1D copy
	if got := h.Access(0, Data); got == HitL1 {
		t.Fatal("L1 copy survived L2 eviction (inclusion violated)")
	}
}

func TestTimingAccumulation(t *testing.T) {
	tm := DefaultTiming()
	h := New(tinyPlatform(), tm)
	h.Access(0, Data) // memory: 5+12+80
	h.Access(0, Data) // L1 hit: 5
	want := tm.Cycles(Memory) + tm.Cycles(HitL1)
	if got := h.Micros(); math.Abs(got-want/100) > 1e-12 {
		t.Fatalf("Micros = %v, want %v", got, want/100)
	}
	if n := accesses(h); n != 2 {
		t.Fatalf("accesses = %d, want 2", n)
	}
}

// accesses counts the charged references: each one goes to an L1.
func accesses(h *Hierarchy) uint64 {
	i, d := h.L1IStats(), h.L1DStats()
	return i.Hits + i.Misses + d.Hits + d.Misses
}

func TestTouchDoesNotCharge(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	h.Touch(0x40, Data)
	if h.Micros() != 0 || accesses(h) != 0 {
		t.Fatal("Touch charged cycles or accesses")
	}
	if s := h.L1DStats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatal("Touch perturbed statistics")
	}
	if got := h.Access(0x40, Data); got != HitL1 {
		t.Fatalf("touched line not resident: %v", got)
	}
}

func TestFlushL1KeepsL2(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	h.Access(0x80, Data)
	h.FlushL1()
	if got := h.Access(0x80, Data); got != HitL2 {
		t.Fatalf("after FlushL1 access = %v, want HitL2", got)
	}
}

func TestFlushAll(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	h.Access(0x80, Data)
	h.FlushAll()
	if got := h.Access(0x80, Data); got != Memory {
		t.Fatalf("after FlushAll access = %v, want Memory", got)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	h.Access(0x80, Data)
	h.ResetStats()
	if h.Micros() != 0 || accesses(h) != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if got := h.Access(0x80, Data); got != HitL1 {
		t.Fatalf("ResetStats lost contents: %v", got)
	}
}

func TestStatsCounts(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	h.Access(0, Data)
	h.Access(0, Data)
	h.Access(16, Instr)
	d := h.L1DStats()
	if d.Hits != 1 || d.Misses != 1 {
		t.Fatalf("L1D stats = %+v, want 1/1", d)
	}
	i := h.L1IStats()
	if i.Hits != 0 || i.Misses != 1 {
		t.Fatalf("L1I stats = %+v, want 0/1", i)
	}
	// Addresses 0 and 16 share one 64-byte L2 line: the instruction fetch
	// misses L1I but hits the L2 line filled by the first data miss.
	l2 := h.L2Stats()
	if l2.Misses != 1 || l2.Hits != 1 {
		t.Fatalf("L2 stats = %+v, want 1 hit / 1 miss", l2)
	}
}

func TestResidentFraction(t *testing.T) {
	h := New(tinyPlatform(), DefaultTiming())
	addrs := []uint64{0x00, 0x10, 0x20}
	kinds := []AccessKind{Data, Data, Data}
	if got := h.ResidentFraction(addrs, kinds, 1); got != 0 {
		t.Fatalf("cold ResidentFraction = %v, want 0", got)
	}
	h.Access(0x00, Data)
	h.Access(0x10, Data)
	if got := h.ResidentFraction(addrs, kinds, 1); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("ResidentFraction = %v, want 2/3", got)
	}
	// All three addresses sit inside the single 64-byte L2 line already
	// filled, so the whole set is L2-resident.
	if got := h.ResidentFraction(addrs, kinds, 2); got != 1 {
		t.Fatalf("L2 ResidentFraction = %v, want 1", got)
	}
	if h.ResidentFraction(nil, nil, 1) != 0 {
		t.Fatal("empty ResidentFraction must be 0")
	}
}

func TestResidentFractionDoesNotPerturbLRU(t *testing.T) {
	p := tinyPlatform()
	p.L1D = core.CacheConfig{SizeBytes: 128, LineBytes: 16, Assoc: 2}
	h := New(p, DefaultTiming())
	h.Access(0, Data)
	h.Access(64, Data) // LRU order: 64, 0
	// Probing 0 must NOT refresh it to MRU.
	h.ResidentFraction([]uint64{0}, []AccessKind{Data}, 1)
	h.Access(128, Data) // evicts true LRU = 0
	if got := h.Access(64, Data); got != HitL1 {
		t.Fatal("probe perturbed LRU order")
	}
}

func TestOutcomeString(t *testing.T) {
	if HitL1.String() != "L1" || HitL2.String() != "L2" || Memory.String() != "memory" {
		t.Fatal("Outcome strings wrong")
	}
	if Outcome(9).String() != "Outcome(9)" {
		t.Fatal("unknown outcome string wrong")
	}
}

func TestMalformedConfigPanics(t *testing.T) {
	cases := []core.Platform{
		func() core.Platform {
			p := tinyPlatform()
			p.L1D.SizeBytes = 48 // 3 sets: not a power of two
			return p
		}(),
		func() core.Platform {
			p := tinyPlatform()
			p.L1D.LineBytes = 24 // not a power of two
			p.L1D.SizeBytes = 96
			return p
		}(),
	}
	for i, p := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic for malformed config", i)
				}
			}()
			New(p, DefaultTiming())
		}()
	}
}

// Property: replaying an identical trace immediately is never slower
// (warm caches can only help), and hit+miss counts always equal accesses.
func TestPropertyWarmReplayNoSlower(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		trace := make([]uint64, 300)
		for i := range trace {
			trace[i] = uint64(r.Intn(1 << 12))
		}
		h := New(core.SGIChallengeXL(), DefaultTiming())
		for _, a := range trace {
			h.Access(a, Data)
		}
		cold := h.Micros()
		h.ResetStats()
		for _, a := range trace {
			h.Access(a, Data)
		}
		warm := h.Micros()
		d := h.L1DStats()
		if d.Hits+d.Misses != uint64(len(trace)) {
			return false
		}
		return warm <= cold
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the fully-warm replay of any trace that fits in L1 is all hits.
func TestPropertySmallWorkingSetAllHitsWhenWarm(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := New(core.SGIChallengeXL(), DefaultTiming())
		// 256 distinct lines: fits easily in 16KB/16B = 1024-line L1D.
		trace := make([]uint64, 256)
		for i := range trace {
			trace[i] = uint64(i*16 + r.Intn(16))
		}
		for _, a := range trace {
			h.Access(a, Data)
		}
		h.ResetStats()
		for _, a := range trace {
			if h.Access(a, Data) != HitL1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
