package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if !almost(a.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	if !almost(a.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min,Max = %v,%v want 2,9", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 {
		t.Fatalf("Variance of single sample = %v, want 0", a.Variance())
	}
	if a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatal("Min/Max of single sample wrong")
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Set(10, 2) // level 0 for 10
	w.Set(30, 1) // level 2 for 20
	// level 1 for 10 more → area = 0*10 + 2*20 + 1*10 = 50 over 40
	if got := w.Mean(40); !almost(got, 1.25, 1e-12) {
		t.Fatalf("Mean(40) = %v, want 1.25", got)
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Add(5, 3)
	w.Add(10, -1)
	if w.Value() != 2 {
		t.Fatalf("Value = %v, want 2", w.Value())
	}
}

func TestTimeWeightedLateStart(t *testing.T) {
	var w TimeWeighted
	w.Set(100, 5)
	if got := w.Mean(200); !almost(got, 5, 1e-12) {
		t.Fatalf("Mean over [100,200] = %v, want 5", got)
	}
	if w.Mean(100) != 0 {
		t.Fatal("Mean with zero elapsed must be 0")
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var w TimeWeighted
	w.Set(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards time")
		}
	}()
	w.Set(5, 2)
}

func TestBatchMeansCoverage(t *testing.T) {
	// iid normal samples: the 95% CI should contain the true mean the
	// vast majority of the time; check a single long run does.
	r := rand.New(rand.NewSource(1))
	bm := NewBatchMeans(100)
	for i := 0; i < 10000; i++ {
		bm.Add(r.NormFloat64()*2 + 10)
	}
	if bm.Batches() != 100 {
		t.Fatalf("Batches = %d, want 100", bm.Batches())
	}
	if hw := bm.HalfWidth(); math.Abs(bm.Mean()-10) > hw {
		t.Fatalf("true mean outside CI: mean=%v hw=%v", bm.Mean(), hw)
	}
	if rel := bm.HalfWidth() / math.Abs(bm.Mean()); rel > 0.01 {
		t.Fatalf("relative half-width %v too wide for 10k samples", rel)
	}
}

func TestBatchMeansInsufficient(t *testing.T) {
	bm := NewBatchMeans(10)
	for i := 0; i < 15; i++ {
		bm.Add(1)
	}
	if bm.Batches() != 1 {
		t.Fatalf("Batches = %d, want 1", bm.Batches())
	}
	if !math.IsInf(bm.HalfWidth(), 1) {
		t.Fatal("HalfWidth with <2 batches must be +Inf")
	}
}

func TestBatchMeansZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero batch size")
		}
	}()
	NewBatchMeans(0)
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		q := tQuantile975(df)
		if q > prev {
			t.Fatalf("t-quantile not non-increasing at df=%d: %v > %v", df, q, prev)
		}
		prev = q
	}
	if !almost(tQuantile975(1000), 1.96, 1e-9) {
		t.Fatal("large-df quantile should be normal 1.96")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 42} {
		h.Add(x)
	}
	if h.N() != 7 {
		t.Fatalf("N = %d, want 7", h.N())
	}
	counts := h.Counts()
	if counts[0] != 2 { // 0 and 0.5
		t.Fatalf("bin0 = %d, want 2", counts[0])
	}
	if counts[5] != 1 || counts[9] != 1 {
		t.Fatalf("bins = %v", counts)
	}
	if got := h.OverflowFraction(); !almost(got, 2.0/7, 1e-12) {
		t.Fatalf("OverflowFraction = %v, want 2/7", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i) / 10) // uniform on [0, 100)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		if math.Abs(got-q*100) > 1 {
			t.Errorf("Quantile(%v) = %v, want ≈%v", q, got, q*100)
		}
	}
	if h.Quantile(0) != 0 || h.Quantile(1) != 100 {
		t.Fatal("extreme quantiles must clamp to bounds")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid bounds")
		}
	}()
	NewHistogram(5, 5, 10)
}

// Property: histogram quantiles are monotone in q.
func TestPropertyHistogramQuantileMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram(0, 1, 20)
		for i := 0; i < 200; i++ {
			h.Add(r.Float64())
		}
		prev := math.Inf(-1)
		for q := 0.05; q < 1; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
