package fuzz

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// TestGenerateDeterministic: the same seed must yield a structurally
// identical program — reproduction depends on it.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
	}
}

// TestCampaignSmall runs a modest campaign under both modes; every program
// must satisfy every invariant.
func TestCampaignSmall(t *testing.T) {
	failures := Campaign(Options{N: 30, Seed: 1})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestFlippedReorderCaught plants a bug — inverting the reorder-legality
// predicate inside the deferred-epoch machinery — and checks that the
// activation checker detects it within 200 programs. This is the fuzzer's
// own acceptance test: a mutation in the serial-activation logic must not
// survive a campaign.
func TestFlippedReorderCaught(t *testing.T) {
	core.SetDebugFlipReorder(true)
	defer core.SetDebugFlipReorder(false)
	for seed := uint64(1); seed <= 200; seed++ {
		if f := Check(seed, Config{Mode: core.ModeNew}); f != nil {
			t.Logf("flipped canReorder caught at seed %d:\n%s", seed, f)
			return
		}
	}
	t.Fatal("flipped canReorder survived 200 programs undetected")
}

// TestLossyCampaign is the ISSUE's acceptance campaign: 200 seeds over a
// fabric injecting drops, duplicates, corruption, jitter and link flaps.
// The reliability sublayer must repair every fault, so the sequential-
// memory oracle and all epoch/counter invariants hold exactly as on a
// pristine network.
func TestLossyCampaign(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 25
	}
	failures := Campaign(Options{N: n, Seed: 1, Lossy: true, Modes: []core.Mode{core.ModeNew}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestLossyVanillaCampaign gives the blocking reference design the same
// adversary: the sublayer sits below both stacks.
func TestLossyVanillaCampaign(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	failures := Campaign(Options{N: n, Seed: 1000, Lossy: true, Modes: []core.Mode{core.ModeVanilla}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestLossyReplayDeterminism: a lossy execution is a pure function of the
// seed — byte-identical memory and an identical kernel event count on
// replay. This is what makes a lossy fuzz failure reproducible.
func TestLossyReplayDeterminism(t *testing.T) {
	for seed := uint64(3); seed <= 5; seed++ {
		p := Generate(seed)
		a := Run(p, Config{Mode: core.ModeNew, Lossy: true})
		b := Run(p, Config{Mode: core.ModeNew, Lossy: true})
		if a.Err != nil || b.Err != nil {
			t.Fatalf("seed %d: lossy runs failed: %v / %v", seed, a.Err, b.Err)
		}
		if a.KernelEvents != b.KernelEvents {
			t.Fatalf("seed %d: kernel event counts diverge: %d vs %d",
				seed, a.KernelEvents, b.KernelEvents)
		}
		if !reflect.DeepEqual(a.Mems, b.Mems) {
			t.Fatalf("seed %d: final memories diverge across identical lossy runs", seed)
		}
	}
}

// TestLossyActuallyInjects guards against the campaign silently running
// lossless (e.g. a profile of all-zero rates): across a handful of seeds,
// at least one run must record injector activity.
func TestLossyActuallyInjects(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := Generate(seed)
		res := Run(p, Config{Mode: core.ModeNew, Lossy: true})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		var sum int64
		for r := 0; r < p.NRanks; r++ {
			for _, win := range res.Wins[r] {
				fs := win.FaultStats()
				sum += fs.PacketsLost + fs.DupDrops + fs.CorruptDrops + fs.Retransmits
			}
		}
		if sum > 0 {
			return
		}
	}
	t.Fatal("10 lossy seeds injected no faults at all — profile or injector is inert")
}

// TestEventBudgetHeadroom: the watchdog budget must sit far above what
// healthy programs actually consume, or slow-but-correct programs would be
// reported as livelocked.
func TestEventBudgetHeadroom(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := Generate(seed)
		for _, mode := range BothModes {
			res := Run(p, Config{Mode: mode})
			if res.Err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, mode, res.Err)
			}
			if budget := eventBudget(p, false, topo.Crossbar); res.KernelEvents*10 > budget {
				t.Errorf("seed %d mode %s: used %d kernel events, budget %d gives <10x headroom",
					seed, mode, res.KernelEvents, budget)
			}
		}
	}
}

// TestGenerateFlushDeterministic mirrors TestGenerateDeterministic for the
// flush-mode generator, and pins that it only emits round kinds the
// epochless design supports.
func TestGenerateFlushDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := GenerateFlush(seed), GenerateFlush(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateFlush is not deterministic", seed)
		}
		for _, ws := range a.Windows {
			if !ws.Passive {
				t.Fatalf("seed %d: flush program generated an active-family window", seed)
			}
		}
		for i, rd := range a.Rounds {
			if rd.Kind != RLock && rd.Kind != RLockAll && rd.Kind != RFlush {
				t.Fatalf("seed %d round %d: kind %d not supported by flush mode", seed, i, rd.Kind)
			}
		}
	}
}

// TestFlushCampaign runs the ModeFlush arm: epochless lock/lock_all/flush
// programs against the sequential oracle plus the flush-specific end-state
// checks (scalable-lock counters all zero, no epochs ever opened).
func TestFlushCampaign(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	failures := Campaign(Options{N: n, Seed: 1, Modes: []core.Mode{core.ModeFlush}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestFlushLossyCampaign gives the flush family the lossy adversary: the
// go-back-N sublayer repairs every drop/dup/corruption, so flush counters
// must stay dup-idempotent and the oracle exact.
func TestFlushLossyCampaign(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	failures := Campaign(Options{N: n, Seed: 500, Lossy: true, Modes: []core.Mode{core.ModeFlush}})
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestFailureReproduce pins the rendered reproduce line: every cmd/fuzz
// command reruns exactly the failing mode and fabric, and flush mode on the
// signal transport, which no -mode spells, prints the Check call instead.
func TestFailureReproduce(t *testing.T) {
	const cmd = "go run ./cmd/fuzz -seed 7 -n 1 "
	for _, tc := range []struct {
		f    Failure
		want string
	}{
		{Failure{Config: Config{Mode: core.ModeNew}}, cmd + "-mode new"},
		{Failure{Config: Config{Mode: core.ModeVanilla, Lossy: true}}, cmd + "-mode vanilla -lossy"},
		{Failure{Config: Config{Mode: core.ModeFlush}}, cmd + "-mode flush"},
		{Failure{Config: Config{Mode: core.ModeFlush, Lossy: true, Topo: topo.FatTree}}, cmd + "-mode flush -lossy -topo fattree"},
		{Failure{Config: Config{Mode: core.ModeNew, Topo: topo.Ring, Signal: true}}, cmd + "-mode signal -topo ring"},
		{Failure{Config: Config{Mode: core.ModeVanilla, Lossy: true, Signal: true}}, cmd + "-mode signal -lossy"},
		{Failure{Config: Config{Mode: core.ModeNew, Shards: 4}}, cmd + "-mode new -shards 4"},
		{Failure{Config: Config{Mode: core.ModeFlush, Shards: 2}, KV: true}, cmd + "-mode kv -shards 2"},
		{Failure{Config: Config{Mode: core.ModeFlush, Lossy: true, Signal: true}},
			"fuzz.Check(7, fuzz.Config{Mode:2, Lossy:true, Topo:0, Shards:0, Signal:true})"},
	} {
		tc.f.Seed = 7
		tc.f.Problems = []string{"boom"}
		want := fmt.Sprintf("seed=7 mode=%s:\n  boom\n  reproduce: %s", tc.f.Mode, tc.want)
		if got := tc.f.String(); got != want {
			t.Errorf("%+v:\n got: %s\nwant: %s", tc.f.Config, got, want)
		}
	}
}

// TestShardsRefusedOnSerialOnlyFabrics: Shards > 1 with Lossy or a modeled
// Topo is refused up front — by Validate for a campaign and by a panic in
// Run — with one message naming the flag pair, instead of running serial.
func TestShardsRefusedOnSerialOnlyFabrics(t *testing.T) {
	p := Generate(1)
	for _, tc := range []struct {
		o    Options
		pair string
	}{
		{Options{Lossy: true, Shards: 2}, "-shards 2 with -lossy: "},
		{Options{Topo: topo.FatTree, Shards: 2}, "-shards 2 with -topo fattree: "},
	} {
		err := tc.o.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), "fuzz: "+tc.pair) {
			t.Fatalf("%+v: Validate = %v, want a refusal naming %q", tc.o, err, tc.pair)
		}
		func() {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Errorf("%+v: Run panicked with %v, want %q", tc.o, r, err)
				}
			}()
			Run(p, tc.o.config(core.ModeNew))
		}()
	}
	for _, o := range []Options{{Lossy: true, Shards: 1}, {Topo: topo.Torus}, {Shards: 4, Signal: true}} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: refused a runnable campaign: %v", o, err)
		}
	}
}
