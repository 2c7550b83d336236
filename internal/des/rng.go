package des

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Independent streams for arrivals,
// service jitter, stream placement etc. keep variance-reduction intact:
// changing one consumer does not perturb another's draws.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Stream derives an independent named substream from a base seed. The
// derivation hashes the name so that adding streams never re-seeds
// existing ones.
func Stream(base int64, name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return NewRNG(base ^ int64(h.Sum64()))
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Exp returns an exponential draw with the given mean. A non-positive
// mean returns 0, which lets callers express "immediate" cleanly.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// ExpTime returns an exponential Time with the given mean.
func (g *RNG) ExpTime(mean Time) Time { return Time(g.Exp(float64(mean))) }

// Geometric returns a draw from a geometric distribution with the given
// mean (support 1, 2, 3, …). Used for packet-train lengths and burst
// sizes: a train of mean length m ends after each packet with probability
// 1/m. A mean at or below 1 always returns 1.
func (g *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := float64(g.r.Float64())
	// Inverse transform: smallest k ≥ 1 with 1-(1-p)^k ≥ u.
	k := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}
