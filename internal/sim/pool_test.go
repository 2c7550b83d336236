package sim

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/topo"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

func poolParams(seed int64) Params {
	return Params{
		Paradigm: Locking, Policy: sched.MRU, Streams: 4,
		Arrival:         traffic.Poisson{PacketsPerSec: 800},
		MeasuredPackets: 300,
		Seed:            seed,
	}
}

// Identical Params must simulate once: the second submission is a cache
// hit returning the same Results.
func TestPoolMemoizesDuplicateParams(t *testing.T) {
	pl := NewPool(2)
	a := pl.Run(poolParams(1))
	b := pl.Run(poolParams(1))
	if hits, misses := pl.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("cached result differs from original")
	}
	c := pl.Run(poolParams(2))
	if hits, misses := pl.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats after distinct seed = (%d, %d), want (1, 2)", hits, misses)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("distinct seeds returned identical results")
	}
}

// The cache key is canonical: two Params built independently — distinct
// but equal Model pointers, explicit defaults vs zero values — share one
// cache entry.
func TestPoolKeyIsCanonical(t *testing.T) {
	pl := NewPool(1)
	a := poolParams(1)
	a.Model = core.NewModel()
	b := poolParams(1)
	b.Model = core.NewModel() // different pointer, same contents
	b.Processors = core.NewModel().Platform.Processors
	b.MRULookahead = 4 // the WithDefaults value, spelled explicitly
	pl.Run(a)
	pl.Run(b)
	if hits, misses := pl.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	ka, _ := CacheKey(a)
	kb, _ := CacheKey(b)
	if ka != kb {
		t.Errorf("keys differ:\n%s\n%s", ka, kb)
	}
}

// Params that differ in any behavioral knob must not collide.
// Two spellings of one AffinitySteal point run identically, so they
// share a key: the pinned corner (Penalty +Inf) reads neither
// DepthThreshold nor ColdBias, and DepthThreshold 1 refuses no steal
// that 0 allows. Each pair is simulated, so a rule that folded runs
// that differ fails on the Results.
func TestCacheKeyFoldsEquivalentStealSpellings(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b sched.StealParams
	}{
		{"pinned", sched.StealParams{Penalty: math.Inf(1), DepthThreshold: 3, ColdBias: 0.5},
			sched.StealParams{Penalty: math.Inf(1)}},
		{"depth-1", sched.StealParams{Penalty: 40, DepthThreshold: 1, ColdBias: 0.5},
			sched.StealParams{Penalty: 40, ColdBias: 0.5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var res [2]Results
			var keys [2]string
			for i, sp := range []sched.StealParams{c.a, c.b} {
				p := poolParams(1)
				p.Policy, p.Steal = sched.AffinitySteal, sp
				p.Streams, p.Arrival = 8, traffic.Poisson{PacketsPerSec: 1100}
				p.MeasuredPackets = 3000
				keys[i], _ = CacheKey(p)
				res[i] = Run(p)
			}
			if c.a.DepthThreshold == 1 && res[0].Migrations == 0 {
				t.Fatal("no migrations: the run never gets past the steal gate")
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("%+v and %+v ran differently", c.a, c.b)
			}
			if keys[0] != keys[1] {
				t.Errorf("%+v and %+v key apart:\n%s\n%s", c.a, c.b, keys[0], keys[1])
			}
		})
	}
}

func TestPoolKeySeparatesDistinctRuns(t *testing.T) {
	base := poolParams(1)
	kBase, _ := CacheKey(base)
	for name, mutate := range map[string]func(*Params){
		"policy":    func(p *Params) { p.Policy = sched.FCFS },
		"rate":      func(p *Params) { p.Arrival = traffic.Poisson{PacketsPerSec: 801} },
		"burst":     func(p *Params) { p.Arrival = traffic.Batch{PacketsPerSec: 800, MeanBurst: 4} },
		"seed":      func(p *Params) { p.Seed = 2 },
		"datatouch": func(p *Params) { p.DataTouch = 35 },
		"packets":   func(p *Params) { p.MeasuredPackets = 301 },
		"lookahead": func(p *Params) { p.MRULookahead = 8 },
	} {
		p := base
		mutate(&p)
		if k, _ := CacheKey(p); k == kBase {
			t.Errorf("%s: key collision", name)
		}
	}
}

// cacheKeyMutations changes every Params field, one at a time, in a way
// that alters run identity. TestCacheKeyCoversAllParams checks the map
// covers the struct; TestCacheKeyFieldSensitivity checks each mutation
// moves the key.
var cacheKeyMutations = map[string]func(*Params){
	"Model": func(p *Params) {
		m := core.NewModel()
		m.Platform.ClockMHz *= 2
		p.Model = m
	},
	"Paradigm":   func(p *Params) { p.Paradigm = IPS },
	"Policy":     func(p *Params) { p.Policy = sched.FCFS },
	"Processors": func(p *Params) { p.Processors = 3 },
	"Streams":    func(p *Params) { p.Streams = 5 },
	"Stacks":     func(p *Params) { p.Stacks = 2 },
	"Topology": func(p *Params) {
		p.Processors = 8
		p.Topology = &topo.Topology{Sockets: 2, CoresPerSocket: 4,
			SameSocketTransient: 1, CrossSocketTransient: 2}
	},
	"FDRebalance":  func(p *Params) { p.FDRebalance = 16 },
	"hashIdentity": func(p *Params) { p.hashIdentity = true },
	"Steal":        func(p *Params) { p.Steal = sched.StealParams{Penalty: 25, DepthThreshold: 2, ColdBias: 0.5} },
	"Arrival":      func(p *Params) { p.Arrival = traffic.Poisson{PacketsPerSec: 801} },
	"ArrivalPerStream": func(p *Params) {
		p.ArrivalPerStream = []traffic.Spec{
			traffic.Poisson{PacketsPerSec: 1}, traffic.Poisson{PacketsPerSec: 2},
			traffic.Poisson{PacketsPerSec: 3}, traffic.Poisson{PacketsPerSec: 4},
		}
	},
	"Workload": func(p *Params) {
		p.Streams = 0 // let the spec define the stream count
		p.Workload = &workload.Spec{Classes: []workload.Class{
			{Name: "w", Model: "poisson", Streams: 4, RatePPS: 900, Zipf: 1.1},
		}}
	},
	"Background":       func(p *Params) { p.Background = &workload.NonProtocol{Intensity: 0.1} },
	"LockOverhead":     func(p *Params) { p.LockOverhead = 7 },
	"LockCritFrac":     func(p *Params) { p.LockCritFrac = 0.4 },
	"CodeSharedFrac":   func(p *Params) { p.CodeSharedFrac = 0.9 },
	"DataTouch":        func(p *Params) { p.DataTouch = 35 },
	"HybridOverflow":   func(p *Params) { p.HybridOverflow = 9 },
	"MRULookahead":     func(p *Params) { p.MRULookahead = 8 },
	"Seed":             func(p *Params) { p.Seed = 2 },
	"Warmup":           func(p *Params) { p.Warmup = 5 * des.Millisecond },
	"MeasuredPackets":  func(p *Params) { p.MeasuredPackets = 301 },
	"MaxTime":          func(p *Params) { p.MaxTime = des.Second },
	"Faults":           func(p *Params) { p.Faults = (&faults.Plan{}).Down(des.Second, 0) },
	"MaxQueueDepth":    func(p *Params) { p.MaxQueueDepth = 16 },
	"Recorder":         func(p *Params) { p.Recorder = obs.NewMetrics() },
	"DecisionRecorder": func(p *Params) { p.DecisionRecorder = obs.NewLedgerRecorder() },
	"DecisionOverride": func(p *Params) {
		p.DecisionOverride = func(n uint64, pt obs.DecisionPoint, cands []int, chosen int) int { return chosen }
	},
}

// CacheKey spells Params out field by field (no %#v), so a field added
// to Params could silently be left out of the key and alias distinct
// runs. This pins the struct's field set to the mutation table above:
// adding a field fails here until a mutation (and the key) covers it.
func TestCacheKeyCoversAllParams(t *testing.T) {
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := cacheKeyMutations[typ.Field(i).Name]; !ok {
			t.Errorf("Params.%s has no cache-key mutation — update cacheKeyMutations and CacheKey", typ.Field(i).Name)
		}
	}
	if typ.NumField() != len(cacheKeyMutations) {
		t.Errorf("mutation table has %d entries for %d Params fields", len(cacheKeyMutations), typ.NumField())
	}
}

// Every field mutation must move the cache key, except that
// Recorder/DecisionRecorder/DecisionOverride make the run uncacheable.
func TestCacheKeyFieldSensitivity(t *testing.T) {
	base := poolParams(1)
	kBase, ok := CacheKey(base)
	if !ok {
		t.Fatal("base params not cacheable")
	}
	for name, mutate := range cacheKeyMutations {
		p := base
		mutate(&p)
		k, cacheable := CacheKey(p)
		if name == "Recorder" || name == "DecisionRecorder" || name == "DecisionOverride" {
			if cacheable {
				t.Errorf("%s run reported cacheable", name)
			}
			continue
		}
		if !cacheable {
			t.Errorf("%s: mutated params not cacheable", name)
		} else if k == kBase {
			t.Errorf("%s: key collision after mutation", name)
		}
	}
}

// The constructed collision the Topology key segment prevents: two runs
// identical in every other field — including processor count — but
// shaped differently (or shaped identically with different transient
// multipliers) describe different machines and must never share a pool
// entry. Without the |topo: segment all four keys below collide.
func TestCacheKeyTopologyCollisionConstruction(t *testing.T) {
	base := poolParams(1)
	base.Processors = 8
	variants := []*topo.Topology{
		nil, // the flat, topology-free run
		{Sockets: 2, CoresPerSocket: 4, SameSocketTransient: 1, CrossSocketTransient: 2},
		{Sockets: 4, CoresPerSocket: 2, SameSocketTransient: 1, CrossSocketTransient: 2},
		// Same shape as the second, different cross-socket cost.
		{Sockets: 2, CoresPerSocket: 4, SameSocketTransient: 1, CrossSocketTransient: 3},
	}
	keys := map[string]int{}
	for i, tp := range variants {
		p := base
		p.Topology = tp
		k, ok := CacheKey(p)
		if !ok {
			t.Fatalf("variant %d not cacheable", i)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("topology variants %d and %d collide on key %q", prev, i, k)
		}
		keys[k] = i
	}
}

// Runs with a Recorder observe events as a side effect and must never be
// served from (or populate) the cache.
func TestPoolRecorderRunsNotCached(t *testing.T) {
	pl := NewPool(1)
	p := poolParams(1)
	m1, m2 := obs.NewMetrics(), obs.NewMetrics()
	p.Recorder = m1
	pl.Run(p)
	p.Recorder = m2
	pl.Run(p)
	if hits, _ := pl.Stats(); hits != 0 {
		t.Errorf("recorder run served from cache (%d hits)", hits)
	}
	if m1.Snapshot().Events == 0 || m2.Snapshot().Events == 0 {
		t.Error("a recorder saw no events — its run was skipped")
	}
}

// The live door: a live run goes through the pool's slots but never its
// cache, because its interleavings differ from one execution to the
// next. Two identical live requests both run, neither is served from
// nor fills the DES cache, and each counts as live. A fake stands in
// for the live backend, which builds on this package.
func TestPoolLiveRunsNeverCached(t *testing.T) {
	pl := NewPool(2)
	var calls atomic.Int32
	fake := func(Params) Results {
		return Results{Completed: uint64(calls.Add(1))}
	}
	a := pl.RunLive(poolParams(1), fake)
	b := pl.RunLive(poolParams(1), fake)
	if calls.Load() != 2 || a.Completed == b.Completed {
		t.Errorf("two identical live requests ran %d times", calls.Load())
	}
	des := pl.Run(poolParams(1))
	if des.Completed == 0 {
		t.Error("a DES request was served from a live run")
	}
	want := Counts{Requested: 3, DES: 1, Live: 2, Events: des.EventsFired}
	if got := pl.Counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if hits, misses := pl.Stats(); hits != 0 || misses != 3 {
		t.Errorf("stats = (%d hits, %d misses), want (0, 3)", hits, misses)
	}
}

// A live run holds a slot for as long as it runs: on a one-slot pool no
// two live runs overlap, and no DES run fires an event while a live run
// is in flight, though both kinds are submitted at once.
func TestPoolLiveRunsHoldASlot(t *testing.T) {
	pl := NewPool(1)
	var inFlight, overlaps atomic.Int32
	fake := func(Params) Results {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(2 * time.Millisecond) // hold the slot long enough for an overlap to show
		inFlight.Add(-1)
		return Results{}
	}
	watch := recordFunc(func(obs.Event) {
		if inFlight.Load() > 0 {
			overlaps.Add(1)
		}
	})
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			pl.RunLive(poolParams(1), fake)
		}()
		go func() {
			defer wg.Done()
			p := poolParams(int64(i + 1))
			p.Recorder = watch
			pl.Run(p)
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("a live run shared the pool's one slot %d times", n)
	}
	if c := pl.Counts(); c.Live != 4 || c.DES != 4 {
		t.Errorf("counts = %+v, want 4 live and 4 DES runs executed", c)
	}
}

// recordFunc adapts a function to obs.Recorder.
type recordFunc func(obs.Event)

func (f recordFunc) Record(e obs.Event) { f(e) }

// Running many params through a pool must return results in input
// order, identical to serial execution, at any worker count.
func TestRunManyMatchesSerial(t *testing.T) {
	params := []Params{poolParams(1), poolParams(2), poolParams(3), poolParams(1)}
	serial := make([]Results, len(params))
	for i, p := range params {
		serial[i] = Run(p)
	}
	for _, workers := range []int{1, 4} {
		got := NewPool(workers).RunAll(params)
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: results differ from serial", workers)
		}
	}
}

// The TestSharded* tests compose the sequential invariants with the one
// way work is split across cores: a sweep's runs sharded over the
// workers of a Pool. A single run is never split (DESIGN.md §12), so
// these pin that concurrent pool execution perturbs nothing.

// TestShardedConservation runs the whole conservation sweep through a
// four-worker pool: every Result must balance the four-term ledger and
// equal the sequential Run bit for bit.
func TestShardedConservation(t *testing.T) {
	cases := conservationCases()
	got := NewPool(4).RunAll(cases)
	for i, p := range cases {
		if err := CheckInvariants(got[i]); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
		if want := Run(p); !reflect.DeepEqual(want, got[i]) {
			t.Errorf("case %d: Pool(4) result diverged from the sequential Run", i)
		}
	}
}

// TestShardedEmptyFaultPlanNoOp: the pool keys an empty fault plan with
// a zero queue bound like the healthy run, so a concurrent sweep serves
// one from the other's cache entry. That sharing is sound only because
// the empty plan is a no-op, which a direct Run must confirm.
func TestShardedEmptyFaultPlanNoOp(t *testing.T) {
	var params []Params
	for _, c := range faultPolicyCases {
		params = append(params, quick(c.paradigm, c.policy))
	}
	for _, c := range faultPolicyCases {
		p := quick(c.paradigm, c.policy)
		p.Faults = &faults.Plan{}
		p.MaxQueueDepth = 0
		params = append(params, p)
	}
	pl := NewPool(4)
	got := pl.RunAll(params)
	if hits, _ := pl.Stats(); hits != uint64(len(faultPolicyCases)) {
		t.Errorf("pool hits = %d, want %d: empty plans must share the healthy key",
			hits, len(faultPolicyCases))
	}
	n := len(faultPolicyCases)
	for i, c := range faultPolicyCases {
		if direct := Run(params[n+i]); !reflect.DeepEqual(direct, got[i]) {
			t.Errorf("%v/%v: empty fault plan diverged from the pooled healthy run",
				c.paradigm, c.policy)
		}
	}
}

// TestShardedZeroReloadTransientEquivalence runs the flat-model FCFS and
// MRU points of the E8 invariant concurrently on one shared model: the
// two must still coincide, and under -race the shared *core.Model must
// be read-only to a run.
func TestShardedZeroReloadTransientEquivalence(t *testing.T) {
	m := flatModel()
	var params []Params
	for _, policy := range []sched.Kind{sched.FCFS, sched.MRU} {
		p := quick(Locking, policy)
		p.Model = m
		p.Arrival = traffic.Poisson{PacketsPerSec: 2000}
		p.MeasuredPackets = 5000
		params = append(params, p)
	}
	got := NewPool(2).RunAll(params)
	fcfs, mru := got[0], got[1]
	if fcfs.MeanService != mru.MeanService {
		t.Errorf("flat model, pooled: MeanService FCFS %v != MRU %v",
			fcfs.MeanService, mru.MeanService)
	}
	relDiff := math.Abs(fcfs.MeanDelay-mru.MeanDelay) /
		math.Max(fcfs.MeanDelay, mru.MeanDelay)
	if relDiff > 0.005 {
		t.Errorf("flat model, pooled: MeanDelay FCFS %v vs MRU %v (rel diff %v)",
			fcfs.MeanDelay, mru.MeanDelay, relDiff)
	}
}
