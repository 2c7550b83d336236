package sched

import (
	"sync"
	"testing"
)

// Dispatchers are single-threaded by contract — the DES calls them from
// its event loop, the live backend under its dispatch lock. These tests
// pin the two properties real concurrent use still depends on (run
// under -race in CI):
//
//  1. Distinct dispatcher instances share no hidden mutable state, so
//     concurrent runs (the experiment pool, parallel live runs) cannot
//     race through package-level variables.
//  2. A single instance driven under an external mutex — the live
//     backend's usage — is race-clean.

func hammer(t *testing.T, build func() func()) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := build()
			for i := 0; i < 2000; i++ {
				work()
			}
		}()
	}
	wg.Wait()
}

func TestPacketDispatchersIndependentAcrossGoroutines(t *testing.T) {
	for _, kind := range []Kind{FCFS, MRU, ThreadPools, WiredStreams} {
		t.Run(kind.String(), func(t *testing.T) {
			hammer(t, func() func() {
				d := newPD(kind, 4)
				seq := uint64(0)
				return func() {
					seq++
					pkt := Packet{Stream: int(seq % 8), Entity: int(seq % 8), Seq: seq}
					if proc := d.PickProcessor(pkt, []int{0, 1, 2, 3}); proc < 0 {
						d.Enqueue(pkt)
					} else {
						d.RanOn(pkt.Entity, proc)
					}
					if next, ok := d.Dispatch(int(seq % 4)); ok {
						d.RanOn(next.Entity, int(seq%4))
					}
				}
			})
		})
	}
}

func TestStackDispatchersIndependentAcrossGoroutines(t *testing.T) {
	for _, kind := range []Kind{IPSWired, IPSMRU, IPSRandom} {
		t.Run(kind.String(), func(t *testing.T) {
			hammer(t, func() func() {
				d := newSD(kind, 4, 4)
				seq := 0
				return func() {
					seq++
					k := seq % 4
					if proc := d.PickProcessor(k, []int{0, 1, 2, 3}); proc < 0 {
						d.EnqueueStack(k)
					} else {
						d.RanOn(k, proc)
					}
					if next := d.DispatchStack(seq % 4); next >= 0 {
						d.RanOn(next, seq%4)
					}
				}
			})
		})
	}
}

// TestSharedDispatcherUnderExternalLock drives one MRU dispatcher from
// eight goroutines serialized by a mutex — the exact usage pattern of
// the live backend's dispatch lock.
func TestSharedDispatcherUnderExternalLock(t *testing.T) {
	d := newPD(MRU, 4)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				seq := uint64(g*2000 + i)
				mu.Lock()
				pkt := Packet{Stream: int(seq % 8), Entity: int(seq % 8), Seq: seq}
				if proc := d.PickProcessor(pkt, []int{0, 1, 2, 3}); proc >= 0 {
					d.RanOn(pkt.Entity, proc)
				} else {
					d.Enqueue(pkt)
					if next, ok := d.Dispatch(int(seq % 4)); ok {
						d.RanOn(next.Entity, int(seq%4))
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	hits, placements := d.AffinityStats()
	if placements == 0 || hits > placements {
		t.Errorf("AffinityStats = %d/%d after concurrent locked use", hits, placements)
	}
}
