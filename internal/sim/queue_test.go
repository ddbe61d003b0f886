package sim

import (
	"sort"
	"testing"
)

// TestQueueMatchesSortedOrder is the event queue's differential test:
// pushes and pops of band-0 and band-1 events, interleaved at random with
// heavy timestamp collisions, must pop in exactly the order a sort by
// (at, seq) gives. The slab must never grow past the peak number of pending
// events, which shows that popped slots are reused.
func TestQueueMatchesSortedOrder(t *testing.T) {
	k := NewKernel()
	rng := NewRNG(42)
	var pending []event // the reference model: everything pushed, not popped
	fired := -1         // id of the last callback run
	record := func(x any) { fired = x.(int) }
	peak, id := 0, 0
	for step := 0; step < 20000; step++ {
		if len(pending) == 0 || rng.Intn(100) < 55 {
			// Few distinct timestamps at or after the last popped one, so
			// ties are the rule and the seq tiebreak does the ordering.
			at := k.now + Time(rng.Intn(4))
			var seq uint64
			if rng.Intn(3) == 0 {
				seq = k.crossSeq(rng.Intn(6) - 1) // band 1, owners -1..4
			} else {
				k.seq++
				seq = k.seq // band 0
			}
			e := event{at, seq, callback{record, id}}
			id++
			k.push(e)
			pending = append(pending, e)
			peak = max(peak, len(pending))
			continue
		}
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].at != pending[j].at {
				return pending[i].at < pending[j].at
			}
			return pending[i].seq < pending[j].seq
		})
		want := pending[0]
		pending = pending[1:]
		at, cb := k.pop()
		k.now = at
		cb.fn(cb.arg)
		if at != want.at || fired != want.arg.(int) {
			t.Fatalf("step %d: popped event %d at t=%d, want %d at t=%d", step, fired, at, want.arg.(int), want.at)
		}
	}
	if len(k.slab) > peak {
		t.Errorf("slab grew to %d slots for a peak of %d pending events", len(k.slab), peak)
	}
	if len(k.heap)+len(k.free) != len(k.slab) || len(k.heap) != len(pending) {
		t.Errorf("heap %d + free %d != slab %d (pending %d)", len(k.heap), len(k.free), len(k.slab), len(pending))
	}
}

// TestCrossSeqGrowsGeometrically pins the band-1 counter table's growth:
// on a cold kernel, scheduling cross events from owners 0..n-1 in
// ascending order reallocates the table O(log n) times. Growing it to
// exactly owner+2 on each new owner cost one allocation per owner — O(n²)
// copied bytes over a 64k-rank world.
func TestCrossSeqGrowsGeometrically(t *testing.T) {
	const owners = 4096
	allocs := testing.AllocsPerRun(3, func() {
		k := NewKernel()
		for o := 0; o < owners; o++ {
			k.AtCross(k.Now(), noopArg, nil, o, o)
			if err := k.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Doubling reaches 4096 counters in 13 steps; the kernel itself and the
	// first heap, slab and free-list arrays add a few more. The bound is
	// 2·log2(n), far below the n allocations of per-owner regrowth.
	if allocs > 2*12 {
		t.Errorf("scheduling from %d ascending owners: %.0f allocations, want O(log n)", owners, allocs)
	}
}

// TestFnNameUnwrapsClosure checks that the lookahead-violation diagnostic
// names the closure scheduled through At, not the callFunc trampoline.
func TestFnNameUnwrapsClosure(t *testing.T) {
	e := event{callback: callback{callFunc, func() { noop() }}}
	if got, want := e.fnName(), "repro/internal/sim.TestFnNameUnwrapsClosure.func1"; got != want {
		t.Errorf("fnName = %q, want %q", got, want)
	}
	e = event{callback: callback{noopArg, new(int)}}
	if got, want := e.fnName(), "repro/internal/sim.noopArg"; got != want {
		t.Errorf("fnName = %q, want %q", got, want)
	}
}
