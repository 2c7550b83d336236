package exp

import (
	"fmt"
	"sync"

	"affinity/internal/live"
	"affinity/internal/sim"
)

// Grid is the sweep-point execution engine: each experiment declares its
// simulation runs as Points, then Grid.Run executes them all through the
// Config's sim.Pool — concurrently across sweep points AND across
// experiments when RunSuite hands every experiment the same pool —
// before the experiment renders its table from the completed Points.
// Declaration order is preserved and every DES run is deterministic
// given its Params, so the rendered tables are byte-identical at any
// worker count.
type Grid struct {
	id     string
	cfg    Config
	pool   *sim.Pool
	points []*Point
	ran    bool
}

// Point is one declared simulation run: a label for progress reporting
// and the full parameter set. Its Results become available after the
// owning Grid has run.
type Point struct {
	Label  string
	Params sim.Params

	live bool // run on the live goroutine backend
	res  sim.Results
	done bool
}

// Grid returns a sweep-point grid for the experiment with the given ID,
// backed by the Config's pool.
func (c Config) Grid(id string) *Grid {
	return &Grid{id: id, cfg: c, pool: c.pool()}
}

// Add declares one run with the experiment defaults applied — the base
// seed and the quick/full measured-packet budget — and returns its
// handle. The label names the point in progress output.
func (g *Grid) Add(label string, p sim.Params) *Point {
	p.Seed = g.cfg.Seed
	p.MeasuredPackets = g.cfg.packets()
	return g.AddExact(label, p)
}

// AddLive declares one run on the live goroutine backend, with the
// experiment defaults applied as Add applies them. Its Results vary
// from one execution to the next, so a table must print only what is
// stable at the point's margins.
func (g *Grid) AddLive(label string, p sim.Params) *Point {
	pt := g.Add(label, p)
	pt.live = true
	return pt
}

// AddExact declares one run with the Params used verbatim — for points
// that override the suite defaults (capacity probes, replication seeds,
// inflated sample budgets).
func (g *Grid) AddExact(label string, p sim.Params) *Point {
	if g.ran {
		panic(fmt.Sprintf("exp: %s declared a point after Grid.Run", g.id))
	}
	pt := &Point{Label: label, Params: p}
	g.points = append(g.points, pt)
	return pt
}

// Run executes every declared point. Points are submitted to the pool
// concurrently; the pool bounds how many run at once, on either
// backend, and serves duplicate DES configurations from its cache. Run
// returns when all of this grid's points are complete.
func (g *Grid) Run() {
	if g.ran {
		panic(fmt.Sprintf("exp: %s ran its grid twice", g.id))
	}
	g.ran = true
	rep := g.cfg.Reporter
	if rep != nil {
		rep.Points(g.id, len(g.points))
	}
	var wg sync.WaitGroup
	for _, pt := range g.points {
		wg.Add(1)
		go func(pt *Point) {
			defer wg.Done()
			if pt.live {
				pt.res = g.pool.RunLive(pt.Params, live.Run)
			} else {
				pt.res = g.pool.Run(pt.Params)
			}
			pt.done = true
			if rep != nil {
				rep.PointDone(g.id, pt.Label)
			}
		}(pt)
	}
	wg.Wait()
}

// Results returns the point's metrics. It panics if the owning grid has
// not run — a declared-but-unexecuted point is a harness bug, not a
// recoverable condition.
func (p *Point) Results() sim.Results {
	if !p.done {
		panic(fmt.Sprintf("exp: Point %q read before its Grid ran", p.Label))
	}
	return p.res
}
