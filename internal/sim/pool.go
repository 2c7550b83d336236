package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"affinity/internal/core"
	"affinity/internal/sched"
	"affinity/internal/traffic"
)

// Pool is the one place a suite's or a search's runs go through. It
// executes them on a bounded number of worker slots, memoizes DES
// results by canonical parameters, and counts every request.
//
// Two Run submissions whose Params describe the same run (after
// WithDefaults, comparing pointed-to model and workload contents
// rather than pointer identity) simulate once and share the Results.
// Concurrent submissions of the same configuration coalesce: the
// second waits for the first instead of re-running, and counts as
// served from the cache whatever the timing.
//
// Because every DES run is deterministic given its Params, memoization
// is observationally equivalent to re-running; callers must only treat
// the slices and maps inside a shared Results (PerProcBusyTime,
// PerStreamDelay, PerStreamReordered) as read-only.
//
// Runs with an attached Recorder, DecisionRecorder or DecisionOverride
// are executed but never cached: a recorder observes the run as a side
// effect, so sharing one run's Results would silently drop the second
// observer's events. Live runs (RunLive) are never cached either.
type Pool struct {
	slots chan struct{}
	mu    sync.Mutex
	runs  map[string]*poolRun

	requested, cached, des, live, events atomic.Uint64
}

type poolRun struct {
	once sync.Once
	res  Results
}

// Counts is what a pool has done: every run requested of it, how each
// was served, and the DES events its runs fired. Once every request has
// returned, Requested is DES + Live + Cached.
type Counts struct {
	Requested uint64 // Run and RunLive calls
	DES, Live uint64 // runs executed, per backend
	Cached    uint64 // Run calls served from the cache, coalesced duplicates included
	Events    uint64 // DES events fired by the DES runs executed
}

// NewPool returns a pool running at most workers simulations at once
// (workers ≤ 0 selects GOMAXPROCS). The zero-cache, one-shot equivalent
// of a pool is plain Run.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		slots: make(chan struct{}, workers),
		runs:  make(map[string]*poolRun),
	}
}

// Run executes p on the DES (or returns the memoized Results of an
// identical earlier run). It blocks until a worker slot is free and the
// run is complete; it is safe for concurrent use.
func (pl *Pool) Run(p Params) Results {
	pl.requested.Add(1)
	key, cacheable := CacheKey(p)
	if !cacheable {
		return pl.runDES(p)
	}
	pl.mu.Lock()
	r, seen := pl.runs[key]
	if !seen {
		r = &poolRun{}
		pl.runs[key] = r
	}
	pl.mu.Unlock()
	if seen {
		pl.cached.Add(1)
	}
	r.once.Do(func() {
		r.res = pl.runDES(p)
	})
	return r.res
}

// RunLive executes p with run, the live backend's entry point, in one
// of the pool's slots, and counts it as a live run. The pool cannot
// call the live backend itself (that package builds on this one), so
// the caller supplies it. Its Results are never cached: a live run's
// interleavings differ from one execution to the next.
func (pl *Pool) RunLive(p Params, run func(Params) Results) Results {
	pl.requested.Add(1)
	pl.slots <- struct{}{}
	defer func() { <-pl.slots }()
	res := run(p)
	pl.live.Add(1)
	return res
}

// RunAll executes every Params through the pool concurrently and returns
// Results in input order.
func (pl *Pool) RunAll(params []Params) []Results {
	results := make([]Results, len(params))
	var wg sync.WaitGroup
	for i := range params {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = pl.Run(params[i])
		}(i)
	}
	wg.Wait()
	return results
}

// Counts returns what the pool has done so far.
func (pl *Pool) Counts() Counts {
	return Counts{
		Requested: pl.requested.Load(),
		DES:       pl.des.Load(),
		Live:      pl.live.Load(),
		Cached:    pl.cached.Load(),
		Events:    pl.events.Load(),
	}
}

// Stats reports how many requests were served from the cache
// (including coalesced in-flight duplicates) and how many executed, on
// either backend.
func (pl *Pool) Stats() (hits, misses uint64) {
	c := pl.Counts()
	return c.Cached, c.DES + c.Live
}

func (pl *Pool) runDES(p Params) Results {
	pl.slots <- struct{}{}
	defer func() { <-pl.slots }()
	res := Run(p)
	pl.des.Add(1)
	pl.events.Add(res.EventsFired)
	return res
}

// CacheKey returns a canonical identity for the run p describes:
// parameters are defaulted first, and pointed-to configuration (model,
// background workload, fault plan, arrival specs) enters by value, so
// two Params built independently but describing the same run share a
// key and any semantic difference changes it. The second return is
// false when the run is not cacheable (an attached Recorder or
// DecisionRecorder makes the run's event/decision stream a side
// effect).
//
// Every field is spelled out by hand rather than formatted with %#v:
// the reflective form is sensitive to representation details (field
// order, nested struct names, pointer rendering) that are not part of a
// run's identity, and it silently degrades to an address — a key that
// never matches — if a pointer field is ever added to the model.
// TestCacheKeyCoversAllParams pins the field list to the Params struct
// so a new field cannot be forgotten here.
func CacheKey(p Params) (string, bool) {
	// A DecisionOverride is opaque side state steering the run's
	// decisions, so — like the recorders — it makes the run uncacheable.
	if p.Recorder != nil || p.DecisionRecorder != nil || p.DecisionOverride != nil {
		return "", false
	}
	p = p.WithDefaults()
	// Trace-recording arrival specs mutate their trace as the run
	// draws: serving such a run from the cache would skip the recording
	// entirely, so it must never be memoized.
	if specSideEffecting(p.Arrival) {
		return "", false
	}
	for _, s := range p.ArrivalPerStream {
		if specSideEffecting(s) {
			return "", false
		}
	}
	var b strings.Builder
	pl := p.Model.Platform
	fmt.Fprintf(&b, "plat:%d,%g,%g,%t", pl.Processors, pl.ClockMHz, pl.CyclesPerRef, pl.L1SplitEvenRef)
	for _, cc := range [3]core.CacheConfig{pl.L1I, pl.L1D, pl.L2} {
		fmt.Fprintf(&b, ";%d,%d,%d", cc.SizeBytes, cc.LineBytes, cc.Assoc)
	}
	w := p.Model.Workload
	fmt.Fprintf(&b, "|wl:%g,%g,%g,%g", w.W, w.A, w.B, w.LogD)
	cal := p.Model.Calib
	fmt.Fprintf(&b, "|cal:%g,%g,%g", cal.TWarm, cal.TL1Cold, cal.TCold)
	fmt.Fprintf(&b, "|bg:%g,%g", p.Background.Intensity, p.Background.PreemptCost)
	fmt.Fprintf(&b, "|run:%d,%d,%d,%d,%d", p.Paradigm, p.Policy, p.Processors, p.Streams, p.Stacks)
	fmt.Fprintf(&b, "|arr:%s", specKey(p.Arrival))
	for _, s := range p.ArrivalPerStream {
		fmt.Fprintf(&b, ";%s", specKey(s))
	}
	fmt.Fprintf(&b, "|cost:%g,%g,%g,%g", p.LockOverhead, p.LockCritFrac, p.CodeSharedFrac, p.DataTouch)
	fmt.Fprintf(&b, "|q:%d,%d,%d", p.HybridOverflow, p.MRULookahead, p.MaxQueueDepth)
	fmt.Fprintf(&b, "|hash:%d,%t", p.FDRebalance, p.hashIdentity)
	st := stealKey(p.Steal)
	fmt.Fprintf(&b, "|steal:%g,%d,%g", st.Penalty, st.DepthThreshold, st.ColdBias)
	if p.Topology != nil {
		// Parse round-trips String, so the rendering carries every field
		// (shape and both transient multipliers): two runs differing only
		// in topology can never share a key.
		fmt.Fprintf(&b, "|topo:%s", p.Topology.String())
	}
	if p.Workload != nil {
		// Redundant with the expanded ArrivalPerStream above for specs
		// that expand, but keeps invalid (unexpandable) specs from
		// aliasing each other.
		fmt.Fprintf(&b, "|wspec:%s", p.Workload.String())
	}
	fmt.Fprintf(&b, "|faults:%s", p.Faults.String())
	fmt.Fprintf(&b, "|seed:%d", p.Seed)
	fmt.Fprintf(&b, "|stop:%g,%d,%g", float64(p.Warmup), p.MeasuredPackets, float64(p.MaxTime))
	return b.String(), true
}

// stealKey returns the steal point as CacheKey spells it, folding two
// spellings that run identically into one:
//   - Penalty +Inf is the pinned corner: sched.NewPacketDispatcherFull
//     builds the Wired-Streams dispatcher, which reads neither
//     DepthThreshold nor ColdBias, so it keys as (+Inf, 0, 0).
//   - DepthThreshold 1 never refuses a steal: the gate runs only with
//     the packet itself queued, so the backlog is at least 1. It keys
//     as 0.
func stealKey(sp sched.StealParams) sched.StealParams {
	if sp.Pinned() {
		return sched.StealParams{Penalty: sp.Penalty}
	}
	if sp.DepthThreshold == 1 {
		sp.DepthThreshold = 0
	}
	return sp
}

// specKey renders an arrival spec canonically: the dynamic type name
// plus its exported fields by value. %+v dereferences pointer specs to
// their contents (no addresses), so equal specs always render equally.
// A spec carrying reference fields a %+v would render as addresses —
// trace replay holds a *workload.Trace — must instead provide its own
// content-addressed identity via CacheID: an address-derived key could
// alias two different traces once the first is collected and its
// address reused.
func specKey(s traffic.Spec) string {
	if c, ok := s.(interface{ CacheID() string }); ok {
		return c.CacheID()
	}
	return fmt.Sprintf("%T%+v", s, s)
}

// specSideEffecting reports whether an arrival spec declares that
// building/running it observably mutates external state (trace
// recorders do).
func specSideEffecting(s traffic.Spec) bool {
	se, ok := s.(interface{ HasSideEffects() bool })
	return ok && se.HasSideEffects()
}
