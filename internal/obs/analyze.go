package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Offline analysis of a recorded decision ledger: a parser that inverts
// the DecisionCSV sink row for row, and a report of decision counts, a
// regret histogram and the top migrating streams. These run in tools
// (schedtrace), never on the simulation hot path, so they favor clarity
// over allocation discipline.

// ReadDecisionCSV parses a ledger written by the DecisionCSV sink back
// into Decisions (candidate sets owned by the result).
func ReadDecisionCSV(r io.Reader) ([]Decision, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var ds []Decision
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 || text == "" { // header
			continue
		}
		f := strings.Split(text, ",")
		if len(f) != 12 {
			return nil, fmt.Errorf("ledger csv line %d: got %d fields, want 12", line, len(f))
		}
		var d Decision
		var err error
		if d.T, err = strconv.ParseFloat(f[0], 64); err != nil {
			return nil, fmt.Errorf("ledger csv line %d: t_us: %v", line, err)
		}
		pt, ok := ParseDecisionPoint(f[1])
		if !ok {
			return nil, fmt.Errorf("ledger csv line %d: unknown point %q", line, f[1])
		}
		d.Point = pt
		if d.Seq, err = strconv.ParseUint(f[2], 10, 64); err != nil {
			return nil, fmt.Errorf("ledger csv line %d: seq: %v", line, err)
		}
		if d.Stream, err = strconv.Atoi(f[3]); err != nil {
			return nil, fmt.Errorf("ledger csv line %d: stream: %v", line, err)
		}
		if d.Entity, err = strconv.Atoi(f[4]); err != nil {
			return nil, fmt.Errorf("ledger csv line %d: entity: %v", line, err)
		}
		if d.Chosen, err = strconv.Atoi(f[5]); err != nil {
			return nil, fmt.Errorf("ledger csv line %d: chosen: %v", line, err)
		}
		if d.Preferred, err = strconv.Atoi(f[6]); err != nil {
			return nil, fmt.Errorf("ledger csv line %d: preferred: %v", line, err)
		}
		ncand, err := strconv.Atoi(f[7])
		if err != nil {
			return nil, fmt.Errorf("ledger csv line %d: ncand: %v", line, err)
		}
		if d.ChosenCost, err = strconv.ParseFloat(f[8], 64); err != nil {
			return nil, fmt.Errorf("ledger csv line %d: chosen_cost_us: %v", line, err)
		}
		if d.BestCost, err = strconv.ParseFloat(f[9], 64); err != nil {
			return nil, fmt.Errorf("ledger csv line %d: best_cost_us: %v", line, err)
		}
		// f[10] is the derived regret column; recomputed, not parsed.
		if f[11] != "" {
			for _, part := range strings.Split(f[11], "|") {
				cf := strings.SplitN(part, ":", 3)
				if len(cf) != 3 {
					return nil, fmt.Errorf("ledger csv line %d: bad candidate %q", line, part)
				}
				var cd Candidate
				if cd.Proc, err = strconv.Atoi(cf[0]); err != nil {
					return nil, fmt.Errorf("ledger csv line %d: candidate proc: %v", line, err)
				}
				switch cf[1] {
				case "w":
					cd.Warm = true
				case "c":
					cd.Warm = false
				default:
					return nil, fmt.Errorf("ledger csv line %d: bad candidate state %q", line, cf[1])
				}
				if cd.Cost, err = strconv.ParseFloat(cf[2], 64); err != nil {
					return nil, fmt.Errorf("ledger csv line %d: candidate cost: %v", line, err)
				}
				d.Candidates = append(d.Candidates, cd)
			}
		}
		if len(d.Candidates) != ncand {
			return nil, fmt.Errorf("ledger csv line %d: ncand=%d but %d candidates",
				line, ncand, len(d.Candidates))
		}
		ds = append(ds, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ds, nil
}

// RegretBucket is one bar of the decision-regret histogram: decisions
// whose regret fell in (Lo, Hi] µs. The first bucket is the exact-zero
// bucket (Lo = Hi = 0): decisions that chose the cheapest candidate.
type RegretBucket struct {
	Lo, Hi float64
	Count  int
}

// StreamDecisions aggregates one stream's decisions for the ledger
// report.
type StreamDecisions struct {
	Stream    int
	Decisions int
	// Moves counts decisions that placed the stream's work away from the
	// dispatcher's affinity target (Preferred >= 0 and Chosen differs) —
	// the ledger's view of migrations-in-the-making.
	Moves  int
	Regret float64 // summed regret, µs
}

// LedgerReport condenses a recorded decision ledger.
type LedgerReport struct {
	Total       int
	ByPoint     map[string]int // decision-point name → count
	TotalRegret float64        // summed regret, µs
	MaxRegret   float64        // largest single-decision regret, µs
	ZeroRegret  int            // decisions that chose the cheapest candidate
	Hist        []RegretBucket
	// Streams is every stream's aggregate, most Moves first (ties: more
	// regret, then lower stream id) — the head is the "top migrating
	// streams" answer.
	Streams []StreamDecisions
}

// MeanRegret returns the mean per-decision regret, µs (0 for an empty
// ledger).
func (r LedgerReport) MeanRegret() float64 {
	if r.Total == 0 {
		return 0
	}
	return r.TotalRegret / float64(r.Total)
}

// AnalyzeLedger builds the report for a recorded ledger. The regret
// histogram has an exact-zero bucket followed by geometric buckets
// (0,1], (1,2], (2,4], … µs up to the maximum observed regret.
func AnalyzeLedger(ds []Decision) LedgerReport {
	rep := LedgerReport{
		Total:   len(ds),
		ByPoint: make(map[string]int),
	}
	perStream := make(map[int]*StreamDecisions)
	for _, d := range ds {
		rep.ByPoint[d.Point.String()]++
		reg := d.Regret()
		rep.TotalRegret += reg
		if reg > rep.MaxRegret {
			rep.MaxRegret = reg
		}
		if reg == 0 {
			rep.ZeroRegret++
		}
		s := perStream[d.Stream]
		if s == nil {
			s = &StreamDecisions{Stream: d.Stream}
			perStream[d.Stream] = s
		}
		s.Decisions++
		s.Regret += reg
		if d.Preferred >= 0 && d.Chosen != d.Preferred {
			s.Moves++
		}
	}

	rep.Hist = append(rep.Hist, RegretBucket{Count: rep.ZeroRegret})
	for lo, hi := 0.0, 1.0; lo < rep.MaxRegret; lo, hi = hi, hi*2 {
		b := RegretBucket{Lo: lo, Hi: hi}
		for _, d := range ds {
			if reg := d.Regret(); reg > lo && reg <= hi {
				b.Count++
			}
		}
		rep.Hist = append(rep.Hist, b)
	}

	for _, s := range perStream {
		rep.Streams = append(rep.Streams, *s)
	}
	sort.Slice(rep.Streams, func(i, j int) bool {
		a, b := rep.Streams[i], rep.Streams[j]
		if a.Moves != b.Moves {
			return a.Moves > b.Moves
		}
		if a.Regret != b.Regret {
			return a.Regret > b.Regret
		}
		return a.Stream < b.Stream
	})
	return rep
}
