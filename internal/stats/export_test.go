package stats

// Views of estimator state that the tests check invariants through; the
// simulator reads none of them.

// Value returns the current level.
func (w *TimeWeighted) Value() float64 { return w.value }

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() uint64 { return b.batches.N() }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// N returns the total number of observations.
func (h *Histogram) N() uint64 { return h.total }

// Counts returns a copy of the bin counts.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.bins))
	copy(out, h.bins)
	return out
}
