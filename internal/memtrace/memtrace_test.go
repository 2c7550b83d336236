package memtrace

import (
	"math"
	"testing"
	"testing/quick"

	"affinity/internal/cachesim"
	"affinity/internal/des"
)

func TestProtocolTraceDeterministic(t *testing.T) {
	p := NewProtocolTrace(0)
	a, b := p.Packet(), p.Packet()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestProtocolTraceRefCount(t *testing.T) {
	p := NewProtocolTrace(0)
	trace := p.Packet()
	// ~2900 references per packet (warm time ≈ refs·5cyc/100MHz ≈ 146 µs,
	// matching the calibrated t_warm).
	if len(trace) < 2000 || len(trace) > 4000 {
		t.Fatalf("refs per packet = %d, outside calibrated band", len(trace))
	}
	if got := p.refsPerPacket(); got != len(trace) {
		t.Fatalf("refsPerPacket() = %d, want %d", got, len(trace))
	}
}

func TestProtocolTraceFootprintSize(t *testing.T) {
	p := NewProtocolTrace(0)
	fp := p.FootprintBytes()
	// The calibrated footprint is ~9.5 KB — big enough that the reload
	// transient matters, small enough to fit in L1.
	if fp < 8<<10 || fp > 12<<10 {
		t.Fatalf("footprint = %d bytes, outside calibrated band", fp)
	}
}

func TestProtocolTraceStreamsShareCodeNotData(t *testing.T) {
	p0, p1 := NewProtocolTrace(0), NewProtocolTrace(1)
	seen0 := map[uint64]bool{}
	for _, r := range p0.Packet() {
		if r.Kind == cachesim.Data {
			seen0[r.Addr] = true
		}
	}
	var codeShared, dataShared bool
	code1 := map[uint64]bool{}
	for _, r := range p1.Packet() {
		if r.Kind == cachesim.Data && seen0[r.Addr] {
			dataShared = true
		}
		if r.Kind == cachesim.Instr {
			code1[r.Addr] = true
		}
	}
	for _, r := range p0.Packet() {
		if r.Kind == cachesim.Instr && code1[r.Addr] {
			codeShared = true
			break
		}
	}
	if !codeShared {
		t.Fatal("streams must share the protocol text segment")
	}
	if dataShared {
		t.Fatal("streams must not share protocol state addresses")
	}
}

func TestProtocolTraceMixesKinds(t *testing.T) {
	p := NewProtocolTrace(0)
	var instr, data int
	for _, r := range p.Packet() {
		if r.Kind == cachesim.Instr {
			instr++
		} else {
			data++
		}
	}
	if instr == 0 || data == 0 {
		t.Fatalf("trace must mix kinds: instr=%d data=%d", instr, data)
	}
	if instr < data {
		t.Fatalf("fast path should be fetch-dominated: instr=%d data=%d", instr, data)
	}
}

func TestFootprintDeduplicated(t *testing.T) {
	p := NewProtocolTrace(0)
	addrs, kinds := p.Footprint()
	if len(addrs) != len(kinds) {
		t.Fatal("addrs/kinds length mismatch")
	}
	seen := map[Ref]bool{}
	for i := range addrs {
		r := Ref{Addr: addrs[i], Kind: kinds[i]}
		if seen[r] {
			t.Fatalf("duplicate footprint entry %+v", r)
		}
		seen[r] = true
		if addrs[i]%16 != 0 {
			t.Fatalf("footprint entry %x not line-aligned", addrs[i])
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := NewWorkload(des.NewRNG(1))
	b := NewWorkload(des.NewRNG(1))
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed workloads diverged")
		}
	}
}

func TestWorkloadAlternatesKinds(t *testing.T) {
	w := NewWorkload(des.NewRNG(2))
	prev := w.Next().Kind
	for i := 0; i < 10; i++ {
		k := w.Next().Kind
		if k == prev {
			t.Fatal("kinds must alternate")
		}
		prev = k
	}
}

func TestWorkloadSpreadsAcrossCacheSets(t *testing.T) {
	// The mixer must realize the analytic model's assumption that
	// displacing lines map uniformly into cache sets. The raw fractal
	// walk is spatially local (its lines would sit in one narrow band
	// of sets); after mixing, the touched sets must spread across the
	// whole index range.
	w := NewWorkload(des.NewRNG(3))
	sets := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		sets[(w.Next().Addr>>7)&8191] = true
	}
	const bands = 8
	counts := make([]int, bands)
	for s := range sets {
		counts[int(s)*bands/8192]++
	}
	per := len(sets) / bands
	for b, n := range counts {
		if n < per/3 {
			t.Fatalf("set band %d holds %d of %d touched sets; placement clustered: %v",
				b, n, len(sets), counts)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Distinct inputs must map to distinct outputs (spot check): a
	// collision would distort unique-line statistics.
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 100000; i++ {
		m := mix64(i)
		if prev, ok := seen[m]; ok {
			t.Fatalf("mix64 collision: %d and %d", prev, i)
		}
		seen[m] = i
	}
}

func TestWorkloadThetaValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for theta ≤ 1")
		}
	}()
	NewWorkloadTheta(des.NewRNG(1), 1.0)
}

// The fractal walk must reproduce the SST power law: u(R) ∝ R^b with
// b ≈ 0.83. Fit the empirical exponent over two decades and check the
// band. (This is the property the analytic F1/F2 curves rest on.)
// UniqueLines replays n references from a fresh generator and counts
// distinct lines of the given size — the empirical u(R, L), used to
// validate the generator against the analytic power law.
func UniqueLines(seed int64, n int, lineBytes int) int {
	w := NewWorkload(des.NewRNG(seed))
	seen := make(map[uint64]bool, n/4)
	for i := 0; i < n; i++ {
		seen[w.Next().Addr/uint64(lineBytes)] = true
	}
	return len(seen)
}

func TestWorkloadUniqueLinesPowerLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("power-law fit needs large R")
	}
	r1, r2 := 20000, 2000000
	u1 := UniqueLines(42, r1, 16)
	u2 := UniqueLines(42, r2, 16)
	b := math.Log(float64(u2)/float64(u1)) / math.Log(float64(r2)/float64(r1))
	if b < 0.65 || b > 0.95 {
		t.Fatalf("empirical exponent b = %.3f, want ≈0.83 ± band", b)
	}
}

// Property: unique lines never exceed references and never shrink with
// more references.
func TestPropertyUniqueLinesSane(t *testing.T) {
	prop := func(seed int64) bool {
		u1 := UniqueLines(seed, 1000, 16)
		u2 := UniqueLines(seed, 5000, 16)
		return u1 <= 1000 && u2 <= 5000 && u1 <= u2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueLinesCoarserLinesFewer(t *testing.T) {
	u16 := UniqueLines(7, 100000, 16)
	u128 := UniqueLines(7, 100000, 128)
	if u128 >= u16 {
		t.Fatalf("u(R,128)=%d should be below u(R,16)=%d", u128, u16)
	}
}

func TestDisplaceIssuesAccesses(t *testing.T) {
	h := cachesim.New(platform(), cachesim.DefaultTiming())
	w := NewWorkload(des.NewRNG(5))
	w.Displace(h, 500)
	i, d := h.L1IStats(), h.L1DStats()
	if n := i.Hits + i.Misses + d.Hits + d.Misses; n != 500 {
		t.Fatalf("accesses = %d, want 500", n)
	}
}

func TestDataTouchTraceReadsWholeBuffer(t *testing.T) {
	d := NewDataTouchTrace(0, 256)
	covered := map[uint64]bool{}
	for _, r := range d.Packet() {
		if r.Kind == cachesim.Data {
			covered[r.Addr&^1] = true
		}
	}
	if len(covered) != 128 { // 256 bytes as halfwords
		t.Fatalf("covered %d halfwords, want 128", len(covered))
	}
}

func TestDataTouchWarmRateMatchesPaper(t *testing.T) {
	// The paper: "checksumming on our platform can be performed at a
	// rate of 32 bytes/µs." The warm (cached-buffer) rate of our
	// checksum-loop trace must land on it.
	h := cachesim.New(platform(), cachesim.DefaultTiming())
	rate := NewDataTouchTrace(0, 4432).WarmBytesPerMicrosecond(h)
	if rate < 29 || rate > 35 {
		t.Fatalf("warm checksum rate %.1f B/µs, want ≈32 (paper)", rate)
	}
}

func TestDataTouchColdBufferSlower(t *testing.T) {
	h := cachesim.New(platform(), cachesim.DefaultTiming())
	cold := NewDataTouchTrace(0, 4432).BytesPerMicrosecond(h)
	h2 := cachesim.New(platform(), cachesim.DefaultTiming())
	warm := NewDataTouchTrace(0, 4432).WarmBytesPerMicrosecond(h2)
	if cold >= warm {
		t.Fatalf("cold rate %.1f not below warm rate %.1f", cold, warm)
	}
	// A DMA-cold buffer still checksums at the same order of magnitude.
	if cold < warm/2 {
		t.Fatalf("cold rate %.1f implausibly far below warm %.1f", cold, warm)
	}
}
