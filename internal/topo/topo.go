// Package topo models the processor topology: sockets × cores with
// per-level cache-reload transients.
//
// The paper's machine is a flat 8-way SMP — every migration costs the
// same reload transient, so the cost model needs only the displacing
// reference count x and the T(x) curve. On a multi-socket machine the
// transient is level-dependent: a stream migrating between cores of one
// socket can still hit in the shared last-level cache, while a
// cross-socket migration must refill from memory (and pay coherence
// traffic on top). The topology captures that as multipliers on the
// reload-transient portion of the execution-time curve:
//
//	T'(x) = t_warm + scale · (T(x) − t_warm)
//
// where scale is 1 for a packet running where its stream last ran,
// SameSocketTransient for a same-socket migration and
// CrossSocketTransient for a cross-socket one. Only the transient part
// scales — the warm-cache service time is a property of the code path,
// not of where the stream's stale state lives.
//
// The flat topology (one socket, both multipliers 1) is the exact
// degenerate case: every scale is 1 and the model reduces to the
// paper's, bit for bit.
package topo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Topology is a symmetric sockets × cores machine shape with the
// per-level reload-transient multipliers. The zero value is invalid;
// use Parse, or fill every field.
type Topology struct {
	// Sockets and CoresPerSocket define the shape: processor p lives on
	// socket p / CoresPerSocket (processors number the cores
	// socket-major, matching how the simulator numbers them 0..N-1).
	Sockets        int
	CoresPerSocket int
	// SameSocketTransient scales the reload transient of a migration
	// between cores of one socket (≥ 1; 1 = the flat model, < cross
	// because the shared cache retains some of the stream's state).
	SameSocketTransient float64
	// CrossSocketTransient scales the reload transient of a migration
	// between sockets (≥ SameSocketTransient; the refill crosses the
	// interconnect).
	CrossSocketTransient float64
}

// Processors returns the total core count.
func (t *Topology) Processors() int { return t.Sockets * t.CoresPerSocket }

// SocketOf returns the socket holding core p.
func (t *Topology) SocketOf(p int) int { return p / t.CoresPerSocket }

// TransientScale returns the reload-transient multiplier for a packet
// running on core to when its stream last ran on core from: 1 on the
// same core (no migration — the T(x) curve already prices the decay),
// SameSocketTransient within a socket, CrossSocketTransient across.
func (t *Topology) TransientScale(from, to int) float64 {
	if from == to {
		return 1
	}
	if t.SocketOf(from) == t.SocketOf(to) {
		return t.SameSocketTransient
	}
	return t.CrossSocketTransient
}

// Validate checks internal consistency and, when processors > 0, that
// the shape matches that processor count.
func (t *Topology) Validate(processors int) error {
	if t.Sockets <= 0 || t.CoresPerSocket <= 0 {
		return fmt.Errorf("topo: shape %dx%d must be positive", t.Sockets, t.CoresPerSocket)
	}
	if !(t.SameSocketTransient >= 1) {
		return fmt.Errorf("topo: same-socket transient %g must be ≥ 1 (a migration cannot beat staying put)",
			t.SameSocketTransient)
	}
	if !(t.CrossSocketTransient >= t.SameSocketTransient) {
		return fmt.Errorf("topo: cross-socket transient %g must be ≥ same-socket %g",
			t.CrossSocketTransient, t.SameSocketTransient)
	}
	if math.IsInf(t.CrossSocketTransient, 1) {
		return fmt.Errorf("topo: cross-socket transient %g is not finite", t.CrossSocketTransient)
	}
	if processors > 0 && t.Processors() != processors {
		return fmt.Errorf("topo: shape %dx%d has %d cores, run has %d processors",
			t.Sockets, t.CoresPerSocket, t.Processors(), processors)
	}
	return nil
}

// String renders the topology in a form Parse round-trips: bare "SxC"
// when the multipliers are exactly what Parse would default for that
// shape, else "SxC:same,cross".
func (t *Topology) String() string {
	cross := 1.0
	if t.Sockets > 1 {
		cross = 1.5
	}
	if t.SameSocketTransient == 1 && t.CrossSocketTransient == cross {
		return fmt.Sprintf("%dx%d", t.Sockets, t.CoresPerSocket)
	}
	return fmt.Sprintf("%dx%d:%g,%g",
		t.Sockets, t.CoresPerSocket, t.SameSocketTransient, t.CrossSocketTransient)
}

// Parse reads a topology spec: "SxC" (sockets × cores per socket,
// multipliers defaulting to same=1, cross=1.5) or "SxC:same,cross"
// with explicit transient multipliers — e.g. "2x4" or "2x4:1.2,2".
// The defaulted cross multiplier only applies when S > 1; a flat "1x8"
// stays the identity topology.
func Parse(s string) (*Topology, error) {
	shape, trans, hasTrans := strings.Cut(s, ":")
	sock, cores, ok := strings.Cut(shape, "x")
	if !ok {
		return nil, fmt.Errorf("topo: %q is not SxC or SxC:same,cross", s)
	}
	ns, err := strconv.Atoi(sock)
	if err != nil {
		return nil, fmt.Errorf("topo: bad socket count in %q: %v", s, err)
	}
	nc, err := strconv.Atoi(cores)
	if err != nil {
		return nil, fmt.Errorf("topo: bad cores-per-socket in %q: %v", s, err)
	}
	t := &Topology{Sockets: ns, CoresPerSocket: nc, SameSocketTransient: 1, CrossSocketTransient: 1}
	if ns > 1 {
		t.CrossSocketTransient = 1.5
	}
	if hasTrans {
		same, cross, ok := strings.Cut(trans, ",")
		if !ok {
			return nil, fmt.Errorf("topo: %q transients are not same,cross", s)
		}
		if t.SameSocketTransient, err = strconv.ParseFloat(same, 64); err != nil {
			return nil, fmt.Errorf("topo: bad same-socket transient in %q: %v", s, err)
		}
		if t.CrossSocketTransient, err = strconv.ParseFloat(cross, 64); err != nil {
			return nil, fmt.Errorf("topo: bad cross-socket transient in %q: %v", s, err)
		}
	}
	if err := t.Validate(0); err != nil {
		return nil, err
	}
	return t, nil
}
