package sim

import "affinity/internal/des"

// Sharded-runner integration (Params.Shards, DESIGN.md §12).
//
// The event loop itself must stay sequential to keep Results
// bit-identical — dispatcher state, the arrival sequence counter and
// the statistics accumulators are all global and order-sensitive. What
// CAN move off the loop without changing a single published draw is
// the arrival generation: each stream's draw chain touches only its
// own named RNG substream, so K pipeline workers may run the chains
// arbitrarily far ahead (the chain has unbounded lookahead with
// respect to the dispatcher — the degenerate best case of the
// conservative windows in des.Sharded) and the loop pops precomputed
// draws from per-stream rings. Same numbers, same order, same Results
// at any K; the differential, metamorphic and fuzz tests in
// shard_test.go hold the equivalence over the policy × fault-plan ×
// workload-spec matrix.

// prefetchProc adapts one ring of the runner's Prefetcher to the
// traffic.Process the arrival sources consume.
type prefetchProc struct {
	p   *des.Prefetcher
	src int
}

func (pp prefetchProc) Next() (des.Time, int) { return pp.p.Next(pp.src) }

// buildPrefetch starts the arrival pipeline when the run asked for one
// (Shards > 1) and every stream is eligible. It returns nil — and the
// runner draws inline, bit-identically — when sharding cannot apply:
// a single stream has nothing to partition, and side-effecting specs
// (trace recorders) must see exactly the draws the run consumes, not
// speculative read-ahead.
func (r *runner) buildPrefetch() *des.Prefetcher {
	k := r.p.Shards
	if k <= 1 || r.p.Streams < 2 {
		return nil
	}
	for s := 0; s < r.p.Streams; s++ {
		if specSideEffecting(r.arrivalSpec(s)) {
			return nil
		}
	}
	sources := make([]func() (des.Time, int), r.p.Streams)
	for s := 0; s < r.p.Streams; s++ {
		// Identical construction to the sequential path: the same spec,
		// the same named substream, so the same draw chain.
		sources[s] = r.ArrivalProcess(s).Next
	}
	ringCap := 256
	if r.p.Streams > 1024 {
		ringCap = 64 // bound pipeline memory on very wide runs
	}
	r.pipe = des.NewPrefetcher(sources, k, ringCap)
	return r.pipe
}

// close releases the runner's pipeline workers, if any. Runs that never
// built a pipeline are no-ops.
func (r *runner) close() {
	if r.pipe != nil {
		r.pipe.Close()
		r.pipe = nil
	}
}
