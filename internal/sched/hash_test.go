package sched

import (
	"strings"
	"testing"

	"affinity/internal/des"
)

// TestKindClassificationExhaustive is the guard the ordinal-range bug
// slipped past: every Kind in [0, kindCount) must belong to exactly one
// paradigm and print a real name. A newly appended Kind lands in the
// loop automatically, so forgetting to extend ForLocking/ForIPS (or
// String) fails here instead of silently misclassifying.
func TestKindClassificationExhaustive(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		locking, ips := k.ForLocking(), k.ForIPS()
		if locking == ips {
			t.Errorf("Kind %d (%v): ForLocking=%v ForIPS=%v, want exactly one paradigm",
				int(k), k, locking, ips)
		}
		if s := k.String(); strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind %d has no String case: %q", int(k), s)
		}
	}
	// Out-of-range kinds belong to neither paradigm.
	for _, k := range []Kind{-1, kindCount, 99} {
		if k.ForLocking() || k.ForIPS() {
			t.Errorf("out-of-range Kind %d classified into a paradigm", int(k))
		}
	}
}

func hashPD(k Kind, n int, hc HashConfig) PacketDispatcher {
	return NewPacketDispatcherFull(k, n, des.NewRNG(1), 1, hc, StealConfig{})
}

// identity hashing with entity < table size makes home = entity % n,
// which the placement tests below rely on for predictability.
func idPD(k Kind, n int, rebalance int) PacketDispatcher {
	return hashPD(k, n, HashConfig{Identity: true, Rebalance: rebalance})
}

func TestRSSHomesAreStatic(t *testing.T) {
	d := idPD(RSS, 2, 0)
	// entity 4 → home 0, entity 5 → home 1, regardless of idle order.
	if got := d.PickProcessor(pkt(4), []int{0, 1}); got != 0 {
		t.Fatalf("entity 4 placed on %d, want hash home 0", got)
	}
	if got := d.PickProcessor(pkt(5), []int{0, 1}); got != 1 {
		t.Fatalf("entity 5 placed on %d, want hash home 1", got)
	}
	// Home busy: RSS waits even with another processor idle.
	if got := d.PickProcessor(pkt(4), []int{1}); got != -1 {
		t.Fatalf("RSS placed a flow off its hash home: %d", got)
	}
	d.Enqueue(pkt(4))
	if _, ok := d.Dispatch(1); ok {
		t.Fatal("processor 1 stole an RSS packet")
	}
	p, ok := d.Dispatch(0)
	if !ok || p.Entity != 4 {
		t.Fatalf("home dispatch = %+v, %v", p, ok)
	}
	// RanOn must not move the home (the hash owns placement).
	d.RanOn(4, 1)
	if got := d.PreferredProc(4); got != 0 {
		t.Fatalf("RanOn moved an RSS home to %d", got)
	}
}

func TestRSSIgnoresRebalanceConfig(t *testing.T) {
	// Even with an aggressive trigger configured, the RSS constructor
	// forces the static table: a backed-up home never re-homes.
	d := hashPD(RSS, 2, HashConfig{Identity: true, Rebalance: 1})
	for i := 0; i < 4; i++ {
		d.Enqueue(pkt(0)) // home 0 backs up
	}
	if got := d.PickProcessor(pkt(0), []int{1}); got != -1 {
		t.Fatalf("RSS rebalanced a flow to %d", got)
	}
	if got := d.PreferredProc(0); got != 0 {
		t.Fatalf("RSS home moved to %d", got)
	}
}

func TestHashMixSpreadsStreams(t *testing.T) {
	// The non-identity hash must not collapse small consecutive stream
	// ids onto one processor.
	d := hashPD(RSS, 4, HashConfig{})
	seen := map[int]bool{}
	for e := 0; e < 64; e++ {
		h := d.PreferredProc(e)
		if h < 0 || h >= 4 {
			t.Fatalf("entity %d hashed to %d", e, h)
		}
		seen[h] = true
	}
	if len(seen) != 4 {
		t.Fatalf("64 streams hashed onto only %d of 4 processors", len(seen))
	}
}

func TestFlowDirectorRebalancesOnPick(t *testing.T) {
	d := idPD(FlowDirector, 2, 2)
	// Flow 0's home 0 backs up past the trigger.
	d.Enqueue(pkt(0))
	d.Enqueue(pkt(0))
	// Home busy, processor 1 idle: the arriving packet re-homes flow 0.
	got := d.PickProcessor(pkt(0), []int{1})
	if got != 1 {
		t.Fatalf("FlowDirector placed on %d, want re-home target 1", got)
	}
	if h := d.PreferredProc(0); h != 1 {
		t.Fatalf("override not recorded: home = %d", h)
	}
	// The stale packets still drain from the old core — the reordering
	// window — and count as affinity misses there.
	p, ok := d.Dispatch(0)
	if !ok || p.Entity != 0 {
		t.Fatalf("stale dispatch = %+v, %v", p, ok)
	}
	hits, total := d.AffinityStats()
	if total == 0 || hits != 0 {
		t.Fatalf("AffinityStats = %d/%d, want stale dispatch counted as miss", hits, total)
	}
}

func TestFlowDirectorRebalancesOnEnqueue(t *testing.T) {
	d := idPD(FlowDirector, 2, 2)
	d.Enqueue(pkt(0))
	d.Enqueue(pkt(0))
	// No idle processor: the enqueue-side trigger compares queue depths
	// (2 vs 0 ≥ trigger 2) and re-homes to the least-loaded core.
	d.Enqueue(pkt(0))
	if h := d.PreferredProc(0); h != 1 {
		t.Fatalf("enqueue-side rebalance missing: home = %d", h)
	}
	if got := d.DepthFor(pkt(0)); got != 1 {
		t.Fatalf("DepthFor after re-home = %d, want 1 (new queue)", got)
	}
	if d.Queued() != 3 {
		t.Fatalf("Queued = %d, want 3", d.Queued())
	}
}

func TestFlowDirectorDisabledBehavesLikeRSS(t *testing.T) {
	// rebalance < 0 disables the trigger entirely; the sim-level
	// property test asserts bit-identical Results, this pins the unit
	// behavior.
	d := idPD(FlowDirector, 2, -1)
	for i := 0; i < 8; i++ {
		d.Enqueue(pkt(0))
	}
	if got := d.PickProcessor(pkt(0), []int{1}); got != -1 {
		t.Fatalf("disabled FlowDirector rebalanced to %d", got)
	}
	if h := d.PreferredProc(0); h != 0 {
		t.Fatalf("disabled FlowDirector moved home to %d", h)
	}
}

func TestHashedProcDownRewritesTableAndMigrates(t *testing.T) {
	d := idPD(RSS, 2, 0)
	d.Enqueue(pkt(0)) // home 0
	d.Enqueue(pkt(2)) // home 0
	d.ProcDown(0)
	// Every bucket naming 0 now names a live processor, and the queued
	// packets moved with their flows in arrival order.
	if h := d.PreferredProc(0); h != 1 {
		t.Fatalf("post-fault home = %d, want 1", h)
	}
	p, ok := d.Dispatch(1)
	if !ok || p.Entity != 0 {
		t.Fatalf("migrated dispatch = %+v, %v", p, ok)
	}
	p, ok = d.Dispatch(1)
	if !ok || p.Entity != 2 {
		t.Fatalf("migrated dispatch = %+v, %v", p, ok)
	}
	// Recovery fails the table back and future packets land home again.
	d.ProcUp(0)
	if h := d.PreferredProc(0); h != 0 {
		t.Fatalf("post-recovery home = %d, want canonical 0", h)
	}
}

func TestHashedProcUpFailsBackQueuedPackets(t *testing.T) {
	d := idPD(RSS, 2, 0)
	d.ProcDown(0)
	d.Enqueue(pkt(0)) // home rewritten to 1 while 0 is down
	d.Enqueue(pkt(1)) // native to 1
	d.ProcUp(0)
	// Flow 0's packet failed back to processor 0; flow 1's stayed.
	p, ok := d.Dispatch(0)
	if !ok || p.Entity != 0 {
		t.Fatalf("failback dispatch = %+v, %v", p, ok)
	}
	p, ok = d.Dispatch(1)
	if !ok || p.Entity != 1 {
		t.Fatalf("native dispatch = %+v, %v", p, ok)
	}
}

func TestFlowDirectorOverrideSurvivesFaultCycle(t *testing.T) {
	d := idPD(FlowDirector, 3, 1)
	d.Enqueue(pkt(0))
	if got := d.PickProcessor(pkt(0), []int{1, 2}); got != 1 {
		t.Fatalf("re-home target = %d, want lowest idle 1", got)
	}
	// The re-homed flow's override follows fault rewrites: down 1, the
	// override moves to a live core; recovery does not undo ATR state.
	d.ProcDown(1)
	if h := d.PreferredProc(0); h == 1 {
		t.Fatal("override still names the failed processor")
	}
	moved := d.PreferredProc(0)
	d.ProcUp(1)
	if h := d.PreferredProc(0); h != moved {
		t.Fatalf("recovery rewrote an ATR override: %d → %d", moved, h)
	}
}

// The indirection table must scale with the machine: the historical
// 128-entry constant is the floor (so every pre-existing golden at ≤ 64
// cores is byte-identical), and beyond 64 cores the table doubles until
// it holds at least two buckets per core — the O(cores) audit item from
// the thousand-core ROADMAP work. Power-of-two sizes keep the masking
// arithmetic of real RSS hardware.
func TestIndirectionTableScalesWithCores(t *testing.T) {
	cases := []struct{ cores, want int }{
		{1, 128},
		{8, 128},
		{64, 128}, // exactly 2×64: the historical constant still fits
		{65, 256},
		{128, 256},
		{500, 1024},
		{1024, 2048},
	}
	for _, c := range cases {
		if got := tableSizeFor(c.cores); got != c.want {
			t.Errorf("tableSizeFor(%d) = %d, want %d", c.cores, got, c.want)
		}
	}
}

// Regression at the 1024-core topology: with the fixed 128-entry table,
// cores 128..1023 never appeared in the table and could not be hashed
// to. Every core must own at least one bucket (the i%n fill gives each
// exactly tableSize/n once tableSize ≥ 2n), and RSS placement must
// actually reach a high core.
func TestRSSCoversAllCoresAt1024(t *testing.T) {
	const n = 1024
	d := idPD(RSS, n, 0).(*hashed)
	if len(d.tab.cur) != tableSizeFor(n) {
		t.Fatalf("table length %d, want %d", len(d.tab.cur), tableSizeFor(n))
	}
	seen := make([]int, n)
	for _, proc := range d.tab.cur {
		if proc < 0 || proc >= n {
			t.Fatalf("table entry %d out of range", proc)
		}
		seen[proc]++
	}
	for proc, buckets := range seen {
		if buckets == 0 {
			t.Fatalf("core %d owns no indirection-table bucket", proc)
		}
	}
	// Identity hashing: entity e lands in bucket e, whose home is
	// e % 1024 — a stream must be placeable on core 1023.
	if got := d.PickProcessor(pkt(1023), []int{1023}); got != 1023 {
		t.Fatalf("entity 1023 placed on %d, want core 1023", got)
	}
	// And the full dispatch cycle works at this scale.
	d.Enqueue(pkt(777))
	if got, ok := d.Dispatch(777); !ok || got.Entity != 777 {
		t.Fatalf("core 777 failed to dispatch its queued packet: %+v %v", got, ok)
	}
}
