// Package faults describes deterministic fault-injection plans for the
// simulation: timed processor failures and recoveries, transient
// slow-downs, arrival bursts, and packet-loss probability. A Plan is
// pure data — an ordered list of timed events — so the same Plan fed to
// the same simulation seed reproduces the same run bit for bit, and a
// Plan's canonical String form identifies it in the memoizing run
// cache.
//
// The simulator consumes the Plan (internal/sim): processor failures
// shrink the idle set and trigger policy-level re-homing of wired
// entities, recoveries restore the processor with a cold cache (its
// affinity state is wiped, so the first packets back pay the reload
// transient), slow-downs multiply charged execution times, bursts
// inject packet batches, and loss draws a seed-derived random number
// per arrival.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"affinity/internal/des"
)

// Kind classifies one fault event.
type Kind uint8

const (
	// ProcDown fails processor Proc at At: it finishes any in-flight
	// packet, then serves no protocol work until a ProcUp. Its cached
	// protocol state is lost (every entity restarts cold there).
	ProcDown Kind = iota
	// ProcUp restores processor Proc at At with a cold cache.
	ProcUp
	// Slowdown multiplies processor Proc's charged execution times by
	// Factor from At onward; Factor 1 restores full speed.
	Slowdown
	// Loss sets the packet-loss probability to Prob from At onward
	// (each arrival is dropped independently with probability Prob,
	// drawn from a seed-derived RNG stream); Prob 0 restores lossless
	// arrivals.
	Loss
	// Burst injects Count extra packets on Stream at At (Stream -1
	// bursts every stream at once).
	Burst

	numKinds
)

var kindNames = [numKinds]string{"down", "up", "slow", "loss", "burst"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timed fault. Fields that do not apply to the Kind are
// zero.
type Event struct {
	At     des.Time // simulation time, µs
	Kind   Kind
	Proc   int     // ProcDown / ProcUp / Slowdown
	Factor float64 // Slowdown: execution-time multiplier (> 0; 1 = full speed)
	Prob   float64 // Loss: per-packet drop probability in [0, 1]
	Stream int     // Burst: stream index, -1 = every stream
	Count  int     // Burst: packets injected per targeted stream
}

// Plan is an ordered fault schedule. The zero value (and nil) is the
// empty plan: no faults, byte-identical behavior to a run without one.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// HasLoss reports whether any event sets a non-zero loss probability —
// the simulator only creates the loss RNG stream when one does, so
// loss-free plans leave every published random draw untouched.
func (p *Plan) HasLoss() bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == Loss && e.Prob > 0 {
			return true
		}
	}
	return false
}

// add appends an event and returns the plan for chaining.
func (p *Plan) add(e Event) *Plan {
	p.Events = append(p.Events, e)
	return p
}

// Down schedules processor proc to fail at t.
func (p *Plan) Down(t des.Time, proc int) *Plan {
	return p.add(Event{At: t, Kind: ProcDown, Proc: proc})
}

// Up schedules processor proc to recover at t.
func (p *Plan) Up(t des.Time, proc int) *Plan {
	return p.add(Event{At: t, Kind: ProcUp, Proc: proc})
}

// Slow multiplies processor proc's execution times by factor from t
// onward (factor 1 restores full speed).
func (p *Plan) Slow(t des.Time, proc int, factor float64) *Plan {
	return p.add(Event{At: t, Kind: Slowdown, Proc: proc, Factor: factor})
}

// WithLoss sets the packet-loss probability to prob from t onward.
func (p *Plan) WithLoss(t des.Time, prob float64) *Plan {
	return p.add(Event{At: t, Kind: Loss, Prob: prob})
}

// WithBurst injects count extra packets on stream at t (stream -1
// bursts every stream).
func (p *Plan) WithBurst(t des.Time, stream, count int) *Plan {
	return p.add(Event{At: t, Kind: Burst, Stream: stream, Count: count})
}

// Sorted returns the events ordered by time, ties broken by declaration
// order — the firing order the simulator uses.
func (p *Plan) Sorted() []Event {
	if p == nil {
		return nil
	}
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Validate reports a descriptive error for an event that cannot apply
// to a run with the given processor and stream counts.
func (p *Plan) Validate(procs, streams int) error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if !(e.At >= 0) || math.IsInf(float64(e.At), 1) {
			return fmt.Errorf("faults: event %d (%v) at %v, a negative time or not finite", i, e.Kind, e.At)
		}
		switch e.Kind {
		case ProcDown, ProcUp:
			if e.Proc < 0 || e.Proc >= procs {
				return fmt.Errorf("faults: event %d: processor %d outside [0, %d)", i, e.Proc, procs)
			}
		case Slowdown:
			if e.Proc < 0 || e.Proc >= procs {
				return fmt.Errorf("faults: event %d: processor %d outside [0, %d)", i, e.Proc, procs)
			}
			if !(e.Factor > 0) || math.IsInf(e.Factor, 1) {
				return fmt.Errorf("faults: event %d: slow-down factor %v must be positive and finite", i, e.Factor)
			}
		case Loss:
			if !(e.Prob >= 0 && e.Prob <= 1) {
				return fmt.Errorf("faults: event %d: loss probability %v outside [0, 1]", i, e.Prob)
			}
		case Burst:
			if e.Stream < -1 || e.Stream >= streams {
				return fmt.Errorf("faults: event %d: stream %d outside [-1, %d)", i, e.Stream, streams)
			}
			if e.Count <= 0 {
				return fmt.Errorf("faults: event %d: burst count %d must be positive", i, e.Count)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %v", i, e.Kind)
		}
	}
	// A processor must not fail while already failed (or recover while
	// up): the pairing is what makes DownTime accounting well-defined.
	down := map[int]bool{}
	for _, e := range p.Sorted() {
		switch e.Kind {
		case ProcDown:
			if down[e.Proc] {
				return fmt.Errorf("faults: processor %d fails at %v while already down", e.Proc, e.At)
			}
			down[e.Proc] = true
		case ProcUp:
			if !down[e.Proc] {
				return fmt.Errorf("faults: processor %d recovers at %v while not down", e.Proc, e.At)
			}
			down[e.Proc] = false
		}
	}
	return nil
}

// String renders the plan in the canonical form Parse accepts, events
// in time order: "down:0@500ms,up:0@1.5s,slow:2x0.5@1s,loss:0.01@0s,
// burst:*x200@2s". The empty plan renders as "". Two plans describing
// the same schedule share a String, which is how the run cache keys
// them.
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	var b strings.Builder
	for i, e := range p.Sorted() {
		if i > 0 {
			b.WriteByte(',')
		}
		switch e.Kind {
		case ProcDown, ProcUp:
			fmt.Fprintf(&b, "%s:%d", e.Kind, e.Proc)
		case Slowdown:
			fmt.Fprintf(&b, "slow:%dx%s", e.Proc, ftoa(e.Factor))
		case Loss:
			fmt.Fprintf(&b, "loss:%s", ftoa(e.Prob))
		case Burst:
			if e.Stream < 0 {
				fmt.Fprintf(&b, "burst:*x%d", e.Count)
			} else {
				fmt.Fprintf(&b, "burst:%dx%d", e.Stream, e.Count)
			}
		}
		fmt.Fprintf(&b, "@%s", fmtTime(e.At))
	}
	return b.String()
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// fmtTime renders a simulation time as the shortest exact Go duration
// ("500ms", "1.5s", "250µs").
func fmtTime(t des.Time) string {
	d := time.Duration(float64(t) * float64(time.Microsecond))
	return d.String()
}

// Parse builds a Plan from its comma-separated textual form (the
// affinitysim -faults syntax; see String for examples):
//
//	down:PROC@TIME     processor PROC fails at TIME
//	up:PROC@TIME       processor PROC recovers at TIME
//	slow:PROCxF@TIME   multiply PROC's execution times by F from TIME
//	loss:PROB@TIME     drop arrivals with probability PROB from TIME
//	burst:SxN@TIME     inject N packets on stream S (S = * for all)
//
// TIME is a Go duration ("500ms", "2s"). An empty string parses to an
// empty plan.
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		kind, rest, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not KIND:ARGS@TIME", tok)
		}
		args, atStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faults: %q has no @TIME", tok)
		}
		d, err := time.ParseDuration(atStr)
		if err != nil {
			return nil, fmt.Errorf("faults: %q: bad time: %v", tok, err)
		}
		at := des.Time(d.Seconds() * 1e6)
		switch kind {
		case "down", "up":
			proc, err := strconv.Atoi(args)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad processor: %v", tok, err)
			}
			if kind == "down" {
				p.Down(at, proc)
			} else {
				p.Up(at, proc)
			}
		case "slow":
			procStr, facStr, ok := strings.Cut(args, "x")
			if !ok {
				return nil, fmt.Errorf("faults: %q needs PROCxFACTOR", tok)
			}
			proc, err := strconv.Atoi(procStr)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad processor: %v", tok, err)
			}
			fac, err := strconv.ParseFloat(facStr, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad factor: %v", tok, err)
			}
			p.Slow(at, proc, fac)
		case "loss":
			prob, err := strconv.ParseFloat(args, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad probability: %v", tok, err)
			}
			p.WithLoss(at, prob)
		case "burst":
			streamStr, countStr, ok := strings.Cut(args, "x")
			if !ok {
				return nil, fmt.Errorf("faults: %q needs STREAMxCOUNT", tok)
			}
			stream := -1
			if streamStr != "*" {
				stream, err = strconv.Atoi(streamStr)
				if err != nil {
					return nil, fmt.Errorf("faults: %q: bad stream: %v", tok, err)
				}
			}
			count, err := strconv.Atoi(countStr)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad count: %v", tok, err)
			}
			p.WithBurst(at, stream, count)
		default:
			return nil, fmt.Errorf("faults: unknown event kind %q in %q", kind, tok)
		}
	}
	return p, nil
}
