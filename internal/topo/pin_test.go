package topo

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// contended drives a fixed, credit-starved traffic mix through spec over n
// hosts: an all-to-all burst with mixed sizes plus an incast on host 0, and
// a trickle of late LCG-chosen packets that land on already-busy links.
// Every microsecond a probe checks the next link cached in each queued
// token against Graph.NextHop.
func contended(t *testing.T, spec Spec, n int) Summary {
	t.Helper()
	k, e, got := testEngine(t, spec, n)
	probed := 0
	for at := sim.Time(0); at < 2000*sim.Microsecond; at += sim.Microsecond {
		k.At(at, func() { probed += checkQueuedNext(t, e) })
	}
	sent := 0
	k.At(0, func() {
		for r := 0; r < 3; r++ {
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s != d {
						e.Send(sent, s, d, int64(256*(1+(s+d+r)%4)))
						sent++
					}
				}
			}
		}
		for s := 1; s < n; s++ {
			e.Send(sent, s, 0, 1500)
			sent++
		}
	})
	seed := int64(7)
	next := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) & 0x7fffffff
	}
	for i := 0; i < 150; i++ {
		src, dst := int(next()%int64(n)), int(next()%int64(n))
		if src == dst {
			continue
		}
		at := sim.Time(next()%80) * sim.Microsecond
		size := next()%3000 + 1
		id := sent
		sent++
		k.At(at, func() { e.Send(id, src, dst, size) })
	}
	k.SetWatchdog(10_000_000, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != sent || e.InFlight() {
		t.Fatalf("%d of %d packets delivered (in flight: %v)", len(*got), sent, e.InFlight())
	}
	if probed == 0 {
		t.Fatal("no probe saw a queued packet")
	}
	return e.Summary()
}

// checkQueuedNext checks every queued token's cached route against the
// graph and returns how many it checked.
func checkQueuedNext(t *testing.T, e *Engine) int {
	n := 0
	for i := range e.links {
		ls := &e.links[i]
		for _, q := range []*tokenQueue{&ls.transit, &ls.inject} {
			for j := 0; j < q.n; j++ {
				tk := q.buf[(q.head+j)&(len(q.buf)-1)]
				want := -1
				if ls.link.To != tk.dst {
					want = e.G.NextHop(ls.link.To, tk.dst)
				}
				if tk.cur != i || tk.next != want {
					t.Fatalf("t=%d: token on link %d (cur %d) toward %d caches next %d, want %d",
						e.K.Now(), i, tk.cur, tk.dst, tk.next, want)
				}
				n++
			}
		}
	}
	return n
}

// TestCachedNextFollowsRoutes walks every host pair's route one enqueue at
// a time and checks that the token's cached next link is Graph.NextHop of
// the link's far end, ending at the destination after PathLen hops.
func TestCachedNextFollowsRoutes(t *testing.T) {
	fat := testSpec(FatTree)
	fat.HostsPerLeaf, fat.Spines = 4, 2
	for _, c := range []struct {
		spec Spec
		n    int
	}{{testSpec(Ring), 8}, {testSpec(Torus), 9}, {fat, 16}} {
		g := mustBuild(t, c.spec, c.n)
		for src := 0; src < c.n; src++ {
			for dst := 0; dst < c.n; dst++ {
				if src == dst {
					continue
				}
				// A fresh engine on an unstarted kernel: every enqueue meets
				// an idle link, and the scheduled tx ends never run.
				e := NewEngine(sim.NewKernel(), g, func(sim.Time, any, int) {})
				tk := e.allocToken()
				tk.dst = dst
				l, held, hops := g.NextHop(src, dst), false, 0
				for {
					e.enqueue(&e.links[l], tk, held)
					hops++
					want := -1
					if to := g.Links[l].To; to != dst {
						want = g.NextHop(to, dst)
					}
					if tk.next != want {
						t.Fatalf("%v %d->%d hop %d on link %s: next %d, want %d",
							c.spec.Kind, src, dst, hops, g.LinkName(l), tk.next, want)
					}
					if want < 0 {
						break
					}
					l, held = want, true
				}
				if hops != g.PathLen(src, dst) {
					t.Fatalf("%v %d->%d: %d hops, want %d", c.spec.Kind, src, dst, hops, g.PathLen(src, dst))
				}
			}
		}
	}
}

// TestContendedSummaryPinned pins the exact engine-wide congestion counters
// of three contended scenarios. The values were recorded before the engine's
// hot path was reworked (next-hop caching, stall-aware feeder kicks, O(1)
// dequeue); any drift means service order or credit accounting changed.
func TestContendedSummaryPinned(t *testing.T) {
	fat := testSpec(FatTree)
	fat.HostsPerLeaf, fat.Spines = 4, 2
	cases := []struct {
		name    string
		spec    Spec
		n       int
		credits int
		want    string
	}{
		{"ring", testSpec(Ring), 8, 2,
			"delivered=310 forwarded=701 queued=3244523 busy=768726 stalls=227 maxq=14"},
		{"torus", testSpec(Torus), 9, 3,
			"delivered=359 forwarded=544 queued=701982 busy=576094 stalls=32 maxq=11"},
		{"fattree", fat, 16, 2,
			"delivered=874 forwarded=3148 queued=55447470 busy=2715842 stalls=827 maxq=49"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.spec.LinkCredits = c.credits
			s := contended(t, c.spec, c.n)
			got := fmt.Sprintf("delivered=%d forwarded=%d queued=%d busy=%d stalls=%d maxq=%d",
				s.Delivered, s.Forwarded, s.QueuedTime, s.BusyTime, s.CreditStalls, s.MaxQueue)
			if got != c.want {
				t.Errorf("summary\n got %s\nwant %s", got, c.want)
			}
		})
	}
}
