package topo

import (
	"math"
	"strings"
	"testing"
)

func TestFlatIsIdentity(t *testing.T) {
	f := Flat(8)
	if f.Processors() != 8 || f.Sockets != 1 {
		t.Fatalf("Flat(8) = %+v", f)
	}
	if err := f.Validate(8); err != nil {
		t.Fatal(err)
	}
	for from := 0; from < 8; from++ {
		for to := 0; to < 8; to++ {
			if s := f.TransientScale(from, to); s != 1 {
				t.Fatalf("Flat scale(%d,%d) = %g", from, to, s)
			}
		}
	}
}

func TestSocketOfAndScales(t *testing.T) {
	top := &Topology{Sockets: 2, CoresPerSocket: 4, SameSocketTransient: 1.2, CrossSocketTransient: 2}
	if top.Processors() != 8 {
		t.Fatalf("Processors = %d", top.Processors())
	}
	wantSocket := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for p, w := range wantSocket {
		if got := top.SocketOf(p); got != w {
			t.Fatalf("SocketOf(%d) = %d, want %d", p, got, w)
		}
	}
	cases := []struct {
		from, to int
		want     float64
	}{
		{3, 3, 1},   // same core: no migration
		{0, 3, 1.2}, // same socket
		{3, 0, 1.2},
		{0, 4, 2}, // cross socket
		{7, 0, 2},
	}
	for _, c := range cases {
		if got := top.TransientScale(c.from, c.to); got != c.want {
			t.Errorf("TransientScale(%d,%d) = %g, want %g", c.from, c.to, got, c.want)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name  string
		top   Topology
		procs int
		want  string
	}{
		{"zero-sockets", Topology{CoresPerSocket: 4, SameSocketTransient: 1, CrossSocketTransient: 1}, 0, "positive"},
		{"zero-cores", Topology{Sockets: 2, SameSocketTransient: 1, CrossSocketTransient: 1}, 0, "positive"},
		{"same-below-one", Topology{Sockets: 2, CoresPerSocket: 2, SameSocketTransient: 0.5, CrossSocketTransient: 1}, 0, "same-socket"},
		{"cross-below-same", Topology{Sockets: 2, CoresPerSocket: 2, SameSocketTransient: 2, CrossSocketTransient: 1.5}, 0, "cross-socket"},
		{"same-NaN", Topology{Sockets: 2, CoresPerSocket: 2, SameSocketTransient: math.NaN(), CrossSocketTransient: 1.5}, 0, "same-socket"},
		{"cross-NaN", Topology{Sockets: 2, CoresPerSocket: 2, SameSocketTransient: 1, CrossSocketTransient: math.NaN()}, 0, "cross-socket"},
		{"cross-Inf", Topology{Sockets: 2, CoresPerSocket: 2, SameSocketTransient: 1, CrossSocketTransient: math.Inf(1)}, 0, "not finite"},
		{"shape-mismatch", Topology{Sockets: 2, CoresPerSocket: 2, SameSocketTransient: 1, CrossSocketTransient: 1}, 8, "8 processors"},
	}
	for _, c := range cases {
		err := c.top.Validate(c.procs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", c.name, err, c.want)
		}
	}
	good := Topology{Sockets: 2, CoresPerSocket: 4, SameSocketTransient: 1, CrossSocketTransient: 1.5}
	if err := good.Validate(8); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

func TestParseAndStringRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Topology
		out  string // String() rendering; "" means same as in
	}{
		{"1x8", Topology{1, 8, 1, 1}, ""},
		{"2x4", Topology{2, 4, 1, 1.5}, ""}, // default cross re-renders short
		{"2x4:1.2,2", Topology{2, 4, 1.2, 2}, ""},
		{"4x2:1,1", Topology{4, 2, 1, 1}, ""}, // non-default (cross 1): stays long
		{"2x4:1,1.5", Topology{2, 4, 1, 1.5}, "2x4"},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if *got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, *got, c.want)
		}
		want := c.out
		if want == "" {
			want = c.in
		}
		if got.String() != want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got.String(), want)
		}
		// String must survive a second Parse.
		again, err := Parse(got.String())
		if err != nil || *again != *got {
			t.Errorf("round trip of %q: %+v, %v", got.String(), again, err)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"", "8", "x8", "2x", "ax8", "2xb", "2x4:", "2x4:1",
		"2x4:a,2", "2x4:1,b", "0x4", "2x0", "-1x4", "2x4:0.5,2", "2x4:2,1",
	} {
		if top, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", in, top)
		}
	}
}
