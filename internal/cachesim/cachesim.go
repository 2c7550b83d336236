// Package cachesim is a trace-driven simulator of the two-level cache
// hierarchy of the paper's experimental platform (MIPS R4400 / SGI
// Challenge XL). It substitutes for the hardware measurements: the
// calibration experiments replay protocol-processing reference traces
// against it under controlled cache states (everything cold, L1 flushed,
// everything warm) and read off per-packet execution times, exactly the
// three scalars the analytic model needs (see DESIGN.md §2).
//
// Caches are set-associative with LRU replacement (associativity 1 gives
// the direct-mapped organization of the real machine). The hierarchy is
// inclusive: an L2 victim invalidates any copy in L1, as on the R4400.
package cachesim

import (
	"fmt"

	"affinity/internal/core"
)

// AccessKind distinguishes instruction fetches from data references, which
// go to different L1 caches on the split-cache R4400.
type AccessKind uint8

const (
	// Instr is an instruction fetch (L1I).
	Instr AccessKind = iota
	// Data is a load or store (L1D).
	Data
)

// Outcome reports where an access was satisfied.
type Outcome uint8

const (
	// HitL1 was satisfied by the first-level cache.
	HitL1 Outcome = iota
	// HitL2 missed L1 but hit the second-level cache.
	HitL2
	// Memory missed both levels.
	Memory
)

func (o Outcome) String() string {
	switch o {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Timing gives the cost model in processor cycles. Base is the cost of a
// reference that hits in L1 (the paper's m = 5 cycles/reference average
// already folds in L1 hits); L2Penalty and MemPenalty are the additional
// cycles on an L1 miss served by L2 and on an L2 miss served by memory.
// The defaults approximate the Challenge's interleaved-bus latencies.
type Timing struct {
	Base       float64
	L2Penalty  float64
	MemPenalty float64
}

// DefaultTiming returns the timing used throughout the reproduction.
func DefaultTiming() Timing {
	return Timing{Base: 5, L2Penalty: 12, MemPenalty: 80}
}

// Cycles returns the cost of one access with the given outcome.
func (t Timing) Cycles(o Outcome) float64 {
	switch o {
	case HitL1:
		return t.Base
	case HitL2:
		return t.Base + t.L2Penalty
	default:
		return t.Base + t.L2Penalty + t.MemPenalty
	}
}

// level is one set-associative cache level.
type level struct {
	lineShift uint
	setMask   uint64
	assoc     int
	// ways[set*assoc+i]: tags in LRU order (index 0 most recent).
	tags   []uint64
	valid  []bool
	hits   uint64
	misses uint64
}

func newLevel(cfg core.CacheConfig) *level {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: set count %d not a power of two", sets))
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cachesim: line size %d not a power of two", cfg.LineBytes))
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &level{
		lineShift: shift,
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		tags:      make([]uint64, sets*cfg.Assoc),
		valid:     make([]bool, sets*cfg.Assoc),
	}
}

// lineAddr returns the line-granular address (address >> lineShift).
func (l *level) lineAddr(addr uint64) uint64 { return addr >> l.lineShift }

// access looks up addr, updating LRU state and filling on miss.
// It reports whether the access hit and, on miss, the line address of the
// victim it evicted (ok=false when the fill used an invalid way).
func (l *level) access(addr uint64) (hit bool, victim uint64, evicted bool) {
	line := l.lineAddr(addr)
	set := int(line & l.setMask)
	base := set * l.assoc
	for i := 0; i < l.assoc; i++ {
		if l.valid[base+i] && l.tags[base+i] == line {
			// Move to front (LRU position 0).
			for j := i; j > 0; j-- {
				l.tags[base+j] = l.tags[base+j-1]
				l.valid[base+j] = l.valid[base+j-1]
			}
			l.tags[base] = line
			l.valid[base] = true
			l.hits++
			return true, 0, false
		}
	}
	l.misses++
	last := base + l.assoc - 1
	victim, evicted = l.tags[last], l.valid[last]
	for j := l.assoc - 1; j > 0; j-- {
		l.tags[base+j] = l.tags[base+j-1]
		l.valid[base+j] = l.valid[base+j-1]
	}
	l.tags[base] = line
	l.valid[base] = true
	return false, victim, evicted
}

// contains reports whether addr's line is resident, without touching LRU
// state.
func (l *level) contains(addr uint64) bool {
	line := l.lineAddr(addr)
	base := int(line&l.setMask) * l.assoc
	for i := 0; i < l.assoc; i++ {
		if l.valid[base+i] && l.tags[base+i] == line {
			return true
		}
	}
	return false
}

// invalidateLine drops addr's line if resident.
func (l *level) invalidateLine(line uint64) {
	base := int(line&l.setMask) * l.assoc
	for i := 0; i < l.assoc; i++ {
		if l.valid[base+i] && l.tags[base+i] == line {
			l.valid[base+i] = false
			return
		}
	}
}

func (l *level) flush() {
	for i := range l.valid {
		l.valid[i] = false
	}
}

// Stats summarizes one level's hit/miss counts.
type Stats struct {
	Hits, Misses uint64
}

// Hierarchy is a split-L1 + unified-L2 cache hierarchy for one processor.
type Hierarchy struct {
	l1i, l1d *level
	l2       *level
	timing   Timing
	cycles   float64
	clockMHz float64
}

// New builds a hierarchy from the platform description.
func New(p core.Platform, t Timing) *Hierarchy {
	return &Hierarchy{
		l1i:      newLevel(p.L1I),
		l1d:      newLevel(p.L1D),
		l2:       newLevel(p.L2),
		timing:   t,
		clockMHz: p.ClockMHz,
	}
}

// Access performs one reference, returning where it was satisfied.
// Line fills maintain inclusion: an L2 eviction invalidates the line from
// both L1 caches (conservatively — line sizes differ, so the whole L2
// line's address range is invalidated at L1 granularity).
func (h *Hierarchy) Access(addr uint64, kind AccessKind) Outcome {
	l1 := h.l1d
	if kind == Instr {
		l1 = h.l1i
	}
	if hit, _, _ := l1.access(addr); hit {
		h.cycles += h.timing.Cycles(HitL1)
		return HitL1
	}
	hit, victim, evicted := h.l2.access(addr)
	if evicted {
		// Inclusion: purge the victim L2 line's span from both L1s.
		for _, c := range [2]*level{h.l1i, h.l1d} {
			shift := h.l2.lineShift - c.lineShift
			base := victim << shift
			for i := uint64(0); i < 1<<shift; i++ {
				c.invalidateLine(base + i)
			}
		}
	}
	if hit {
		h.cycles += h.timing.Cycles(HitL2)
		return HitL2
	}
	h.cycles += h.timing.Cycles(Memory)
	return Memory
}

// Touch warms addr into the hierarchy without charging cycles or counting
// toward statistics — used to set up controlled warm-cache conditions.
func (h *Hierarchy) Touch(addr uint64, kind AccessKind) {
	savedCycles := h.cycles
	i1h, i1m := h.l1i.hits, h.l1i.misses
	d1h, d1m := h.l1d.hits, h.l1d.misses
	l2h, l2m := h.l2.hits, h.l2.misses
	h.Access(addr, kind)
	h.cycles = savedCycles
	h.l1i.hits, h.l1i.misses = i1h, i1m
	h.l1d.hits, h.l1d.misses = d1h, d1m
	h.l2.hits, h.l2.misses = l2h, l2m
}

// FlushL1 empties both L1 caches (the controlled "L1 cold, L2 warm"
// condition).
func (h *Hierarchy) FlushL1() {
	h.l1i.flush()
	h.l1d.flush()
}

// FlushAll empties every level (the fully cold condition).
func (h *Hierarchy) FlushAll() {
	h.FlushL1()
	h.l2.flush()
}

// ResetStats clears cycle and hit/miss counters, keeping cache contents.
func (h *Hierarchy) ResetStats() {
	h.cycles = 0
	h.l1i.hits, h.l1i.misses = 0, 0
	h.l1d.hits, h.l1d.misses = 0, 0
	h.l2.hits, h.l2.misses = 0, 0
}

// Micros converts the accumulated cycles to microseconds at the platform
// clock rate.
func (h *Hierarchy) Micros() float64 { return h.cycles / h.clockMHz }

// L1IStats, L1DStats and L2Stats return per-level counters.
func (h *Hierarchy) L1IStats() Stats { return Stats{h.l1i.hits, h.l1i.misses} }

// L1DStats returns the data-cache counters.
func (h *Hierarchy) L1DStats() Stats { return Stats{h.l1d.hits, h.l1d.misses} }

// L2Stats returns the second-level counters.
func (h *Hierarchy) L2Stats() Stats { return Stats{h.l2.hits, h.l2.misses} }

// ResidentFraction reports the fraction of the given addresses whose lines
// are resident at the requested level (1 checks the appropriate L1 by
// kind, 2 checks L2). It does not perturb LRU state; it is the instrument
// used to validate the analytic F1/F2 curves against the simulator.
func (h *Hierarchy) ResidentFraction(addrs []uint64, kinds []AccessKind, lvl int) float64 {
	if len(addrs) == 0 {
		return 0
	}
	if len(kinds) != len(addrs) {
		panic("cachesim: addrs/kinds length mismatch")
	}
	resident := 0
	for i, a := range addrs {
		switch lvl {
		case 1:
			l1 := h.l1d
			if kinds[i] == Instr {
				l1 = h.l1i
			}
			if l1.contains(a) {
				resident++
			}
		case 2:
			if h.l2.contains(a) {
				resident++
			}
		default:
			panic(fmt.Sprintf("cachesim: level must be 1 or 2, got %d", lvl))
		}
	}
	return float64(resident) / float64(len(addrs))
}
