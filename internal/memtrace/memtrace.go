// Package memtrace generates the memory-reference streams the calibration
// experiments replay against the cache simulator:
//
//   - ProtocolTrace: a synthetic per-packet reference stream shaped
//     after the x-kernel's receive-side UDP/IP/FDDI fast path
//     (sequential code walk with loop reuse, per-stream protocol-state
//     touches, header-field accesses). Its size is chosen so that a
//     fully-cold replay costs ≈ 284.3 µs, the paper's measured t_cold.
//   - Workload: a displacing non-protocol reference stream whose
//     unique-lines growth follows the Singh–Stone–Thiebaut power law
//     u(R) ∝ R^b, produced with Thiebaut's fractal random-walk model
//     (θ = 1/b) over a large address space.
package memtrace

import (
	"affinity/internal/cachesim"
	"affinity/internal/des"
	"affinity/internal/xmath"
)

// Ref is one memory reference.
type Ref struct {
	Addr uint64
	Kind cachesim.AccessKind
}

// ProtocolTrace generates the deterministic per-packet reference stream of
// the protocol fast path. The same packet processed twice issues the same
// references — protocol fast paths are highly repeatable, which is exactly
// what makes affinity scheduling pay off.
type ProtocolTrace struct {
	codeBase uint64 // base of the protocol text segment
	dataBase uint64 // base of the per-stream protocol state (PCB etc.)

	CodeBytes  int // text footprint walked per packet
	DataBytes  int // per-stream data footprint touched per packet
	LoopPasses int // how many times the inner loops re-walk hot code
	DataStride int // stride of data-structure field accesses
}

// NewProtocolTrace returns the calibrated default: a ~9.5 KB footprint
// (6 KB text + 3.5 KB data) touched by ≈3100 references per packet, which
// under cachesim.DefaultTiming reproduces the paper's cold/warm packet
// times (see cmd/calibrate and the T2 experiment).
func NewProtocolTrace(streamID int) *ProtocolTrace {
	return &ProtocolTrace{
		// Distinct streams share the text segment but have distinct
		// protocol state, placed far apart so streams do not
		// accidentally share data lines. The data base is offset past
		// the text's L2 index range (text occupies L2 sets 0..47) so a
		// single packet's code and data do not thrash each other — as a
		// real kernel's linker layout would also avoid.
		codeBase:   0x0040_0000,
		dataBase:   0x1000_2000 + uint64(streamID)*0x1_0000,
		CodeBytes:  6 << 10,
		DataBytes:  3584,
		LoopPasses: 2,
		DataStride: 16,
	}
}

// Packet returns the reference stream for processing one packet.
func (p *ProtocolTrace) Packet() []Ref {
	refs := make([]Ref, 0, p.refsPerPacket())
	// Straight-line walk of the fast-path text, one fetch per 4-byte
	// instruction word; the first fifth of the code (header-prediction
	// and demux loops) is re-executed LoopPasses extra times.
	hot := p.CodeBytes / 5
	for pass := 0; pass <= p.LoopPasses; pass++ {
		limit := p.CodeBytes
		if pass > 0 {
			limit = hot
		}
		for off := 0; off < limit; off += 4 {
			refs = append(refs, Ref{Addr: p.codeBase + uint64(off), Kind: cachesim.Instr})
			// Interleave a data reference every fourth instruction:
			// header fields, demux map probes, PCB counters.
			if off%16 == 0 {
				dataOff := (uint64(off/16*p.DataStride) * 2654435761) % uint64(p.DataBytes)
				refs = append(refs, Ref{Addr: p.dataBase + dataOff, Kind: cachesim.Data})
			}
		}
	}
	// Final sequential sweep over the remaining protocol state
	// (socket buffer append, statistics update).
	for off := 0; off < p.DataBytes; off += p.DataStride {
		refs = append(refs, Ref{Addr: p.dataBase + uint64(off), Kind: cachesim.Data})
	}
	return refs
}

func (p *ProtocolTrace) refsPerPacket() int {
	hot := p.CodeBytes / 5
	n := 0
	for pass := 0; pass <= p.LoopPasses; pass++ {
		limit := p.CodeBytes
		if pass > 0 {
			limit = hot
		}
		n += (limit + 3) / 4   // instruction fetches
		n += (limit + 15) / 16 // interleaved data references
	}
	n += (p.DataBytes + p.DataStride - 1) / p.DataStride // final state sweep
	return n
}

// Footprint returns the deduplicated set of references the packet touches,
// for probing cache residency (ResidentFraction).
func (p *ProtocolTrace) Footprint() ([]uint64, []cachesim.AccessKind) {
	seen := make(map[Ref]bool)
	var addrs []uint64
	var kinds []cachesim.AccessKind
	for _, r := range p.Packet() {
		key := Ref{Addr: r.Addr &^ 15, Kind: r.Kind} // dedupe at 16B line grain
		if seen[key] {
			continue
		}
		seen[key] = true
		addrs = append(addrs, key.Addr)
		kinds = append(kinds, key.Kind)
	}
	return addrs, kinds
}

// FootprintBytes returns the approximate unique footprint in bytes.
func (p *ProtocolTrace) FootprintBytes() int {
	addrs, _ := p.Footprint()
	return len(addrs) * 16
}

// Workload is the displacing non-protocol reference generator: a fractal
// random walk (Thiebaut, IEEE ToC 1989). Jump magnitudes follow a Pareto
// law with parameter theta; the resulting unique-lines count grows as
// R^(1/theta), so theta = 1/b matches the Singh–Stone–Thiebaut temporal
// locality exponent b of the MVS workload.
type Workload struct {
	rng     *des.RNG
	addr    float64
	theta   float64
	minStep float64
	span    float64
	flip    bool
}

// NewWorkload returns a generator matched to the MVS exponent b = 0.827457.
func NewWorkload(rng *des.RNG) *Workload {
	return NewWorkloadTheta(rng, 1/0.827457)
}

// NewWorkloadTheta returns a generator with an explicit fractal parameter
// theta > 1 (larger theta ⇒ tighter locality, slower unique-line growth).
func NewWorkloadTheta(rng *des.RNG, theta float64) *Workload {
	if theta <= 1 {
		panic("memtrace: fractal parameter theta must exceed 1")
	}
	return &Workload{
		rng:     rng,
		addr:    1 << 30, // start well away from protocol segments
		theta:   theta,
		minStep: 4,
		span:    1 << 28,
	}
}

// Next returns the next displacing reference. References alternate between
// instruction and data kinds so both split L1 caches see displacement, as
// a real multiprogrammed workload's do.
func (w *Workload) Next() Ref {
	// Pareto jump: magnitude = minStep · u^(−1/θ); random direction.
	u := w.rng.Float64()
	for u == 0 {
		u = w.rng.Float64()
	}
	step := w.minStep * xmath.Pow(u, -1/w.theta)
	if step > w.span {
		step = w.span
	}
	if w.rng.Float64() < 0.5 {
		step = -step
	}
	w.addr += step
	// Reflect at the segment boundaries to stay in range.
	lo, hi := float64(uint64(1)<<30), float64(uint64(1)<<30)+w.span
	for w.addr < lo || w.addr > hi {
		if w.addr < lo {
			w.addr = lo + (lo - w.addr)
		}
		if w.addr > hi {
			w.addr = hi - (w.addr - hi)
		}
	}
	w.flip = !w.flip
	kind := cachesim.Data
	if w.flip {
		kind = cachesim.Instr
	}
	// Scatter the walk's 128-byte lines uniformly across the address
	// space with a bijective mixer. The raw walk is spatially local, so
	// its lines would pile into a narrow band of cache sets (wherever
	// the walk happens to sit); the analytic displacement model assumes
	// lines map independently and uniformly into sets. Mixing at the
	// coarsest line granularity preserves the unique-line counts at
	// every granularity up to 128 bytes while realizing the uniform
	// placement the model assumes.
	a := uint64(w.addr)
	return Ref{Addr: mix64(a>>7)<<7 | a&127, Kind: kind}
}

// mix64 is the SplitMix64 finalizer — a 64-bit bijection with good
// avalanche behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Displace issues n references into the hierarchy without charging its
// statistics toward the caller's measurements (the displacement itself is
// "someone else's" execution). The caller should snapshot/reset stats as
// needed; Displace only performs the accesses.
func (w *Workload) Displace(h *cachesim.Hierarchy, n int) {
	for i := 0; i < n; i++ {
		r := w.Next()
		h.Access(r.Addr, r.Kind)
	}
}
