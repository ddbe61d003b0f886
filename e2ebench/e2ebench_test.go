package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// synthTraces renders samples in the format of pprof -traces: a header,
// then per sample a dashed separator, the value beside the innermost frame,
// and one outer frame per line.
func synthTraces(stacks [][]string, values []string) string {
	var b strings.Builder
	b.WriteString("File: e2ebench\nType: cpu\nDuration: 1s, Total samples = 1s (100%)\n")
	sep := "-----------+-------------------------------------------------------\n"
	for i, stack := range stacks {
		b.WriteString(sep)
		for j, fn := range stack {
			v := ""
			if j == 0 {
				v = values[i]
			}
			fmt.Fprintf(&b, "%10s   %s\n", v, fn)
		}
	}
	b.WriteString(sep)
	return b.String()
}

func TestLayerAttribution(t *testing.T) {
	stacks := [][]string{
		// The diagnostics capture: runtime leaf frames go to the innermost
		// repro/internal frame, not to "runtime".
		{"runtime.callers", "runtime.Callers", "repro/internal/sim.(*Proc).captureSite", "repro/internal/core.(*Window).Put"},
		// Allocation inside the topo engine.
		{"runtime.mallocgc", "repro/internal/topo.(*Engine).start", "repro/internal/sim.(*Kernel).Run"},
		// A runtime helper inlined into a fabric function.
		{"runtime.memmove", "repro/internal/fabric.(*NIC).send", "repro/internal/sim.(*Kernel).Run"},
		// A closure in a nested function name.
		{"repro/internal/fuzz.Campaign.func1", "main.runCampaign"},
		// Collector and scheduler samples with no repro/internal frame.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"},
		// The benchmark's own code.
		{"time.Now", "main.run"},
		// A second sample of an earlier layer adds to it.
		{"repro/internal/sim.(*Kernel).Run"},
	}
	values := []string{"1ms", "2ms", "4ms", "8ms", "16ms", "32ms", "64ms", "1.5s"}
	got, err := layerTraces(strings.NewReader(synthTraces(stacks, values)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 1.501, "topo": 0.002, "fabric": 0.004, "fuzz": 0.008,
		"gc": 0.016, "sched": 0.032, "other": 0.064,
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("%s = %g s, want %g s", l, got[l], w)
		}
	}
	if _, err := layerTraces(strings.NewReader(synthTraces([][]string{{"main.run"}}, []string{"lots"}))); err == nil {
		t.Error("a sample line without a duration parsed")
	}
}

// TestRealProfileParses runs a real CPU profile through go tool pprof.
func TestRealProfileParses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	layers, err := layerCPU([]string{path, path})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range layers {
		total += s
	}
	if total <= 0 {
		t.Errorf("layers = %v: no samples", layers)
	}
}

func TestProfilingOverhead(t *testing.T) {
	// Profiled passes cost 10 % more than the mean of their neighbours,
	// on a steady drift that a half-against-half comparison would report.
	cpus := []float64{1.0, 1.21, 1.2, 1.43, 1.4, 1.65}
	if got := profilingOverhead(cpus); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("overhead = %g, want 0.1", got)
	}
}

// TestReferenceKernelFixed pins the reference kernel's work. The gated time
// metrics are in kernel runs, so a change to the kernel rescales all of
// them; this checksum makes such a change visible.
func TestReferenceKernelFixed(t *testing.T) {
	const want = 4424031157800370346
	for range 2 {
		if got := refKernel(); got != want {
			t.Fatalf("reference kernel checksum = %d, want %d", got, want)
		}
	}
}

func TestStretches(t *testing.T) {
	ps := []probe{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}, {6, 60}, {7, 70}}
	got := stretches(ps)
	// Stretch j lies between probes j and j+1 and averages probes
	// j-2 .. j+3, clipped at the ends.
	want := []float64{2.5, 3, 3.5, 4.5, 5, 5.5}
	if len(got) != len(want) {
		t.Fatalf("%d stretches, want %d", len(got), len(want))
	}
	for j, w := range want {
		if math.Abs(got[j].wall-w) > 1e-12 || math.Abs(got[j].cpu-10*w) > 1e-12 {
			t.Errorf("stretch %d = %+v, want {%g %g}", j, got[j], w, 10*w)
		}
	}
	if m := meanProbe(got[:2]); math.Abs(m.wall-2.75) > 1e-12 || math.Abs(m.cpu-27.5) > 1e-12 {
		t.Errorf("meanProbe = %+v, want {2.75 27.5}", m)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to check sorting
		}
		return xs
	}
	for _, n := range []int{0, 1, 10, 11, 19} {
		if _, _, ok := tail(seq(n)); ok {
			t.Errorf("n=%d: tail reported from too few samples", n)
		}
	}
	for _, c := range []struct {
		n        int
		value, p float64
	}{
		{20, 10, 50}, // ten beyond the median
		{21, 11, 100 * 11.0 / 21},
		{40, 30, 75},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, p, ok := tail(seq(c.n))
		if !ok || v != c.value || math.Abs(p-c.p) > 1e-9 {
			t.Errorf("n=%d: tail = %g at p%g (ok=%v), want %g at p%g", c.n, v, p, ok, c.value, c.p)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
		}
	}
}

// TestPerturbedGoldenFails is the positive control: a golden that differs in
// one digit must turn the scale512 simulation into a failure.
func TestPerturbedGoldenFails(t *testing.T) {
	bad := strings.Replace(scaleGolden, "1005.60", "1005.61", 1)
	if bad == scaleGolden {
		t.Fatal("perturbation did not apply; update the test's needle")
	}
	for _, c := range []struct {
		golden string
		failed int
	}{{scaleGolden, 0}, {bad, 1}} {
		res, err := run(newScale512(c.golden), 1, time.Nanosecond, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.attempted != 1 || res.failed != c.failed {
			t.Errorf("failed %d of %d, want %d of 1", res.failed, res.attempted, c.failed)
		}
	}
}

func TestLUChecks(t *testing.T) {
	times, comm, err := paperRows("..")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(times, " ") != "1.85 1.85 1.26" || strings.Join(comm, " ") != "51.48 51.35 28.93" {
		t.Fatalf("paper rows = %v / %v", times, comm)
	}
	// Synthetic results: only the golden line or the paper row is wrong.
	r := bench.LUResult{Series: bench.SeriesNewNB, Total: 1264727089, CommPct: 28.92893056498171, PerRankS: 1.264727089}
	if err := checkLU(r, 2, luGolden, times, comm); err != nil {
		t.Fatalf("committed golden: %v", err)
	}
	if err := checkLU(r, 2, strings.Replace(luGolden, "1264727089", "1264727090", 1), times, comm); err == nil {
		t.Error("perturbed golden passed")
	}
	if err := checkLU(r, 2, luGolden, times, []string{"51.48", "51.35", "28.94"}); err == nil {
		t.Error("perturbed paper row passed")
	}
}

// TestLU64Pass runs one real pass of every series against the golden.
func TestLU64Pass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 64-rank LU simulations")
	}
	var out passResult
	newLU64(luGolden, "..").pass(1, 0, &out)
	if len(out.sims) != 3 || out.failed != 0 {
		t.Fatalf("failed %d of %d: %v", out.failed, len(out.sims), out.problems)
	}
}

// TestScaleGoldenSharded pins the contract that the scale512 golden is
// bit-identical on the sharded kernel.
func TestScaleGoldenSharded(t *testing.T) {
	bench.SetShards(2)
	defer bench.SetShards(0)
	if got := bench.FigScaleRanks([]int{scaleRanks}, scaleIters).String() + "\n"; got != scaleGolden {
		t.Fatalf("2-shard report differs from the golden:\n%s", got)
	}
}

// TestFuzzPass checks one clean pass and that the oracle verdict counts: a
// deliberately broken reorder rule must fail seeds.
func TestFuzzPass(t *testing.T) {
	w := newFuzzLossy()
	var out passResult
	w.pass(1, 0, &out)
	if len(out.sims) != 2*fuzzSeedsPerPass || out.failed != 0 || out.fuzzSeeds != 2*fuzzSeedsPerPass {
		t.Fatalf("clean pass: %d sims, %d seeds, %d failed: %v", len(out.sims), out.fuzzSeeds, out.failed, out.problems)
	}
	core.SetDebugFlipReorder(true)
	defer core.SetDebugFlipReorder(false)
	out = passResult{}
	w.pass(1, 0, &out)
	if out.failed == 0 || out.fuzzFailures == 0 {
		t.Fatal("flipped reorder rule passed the oracle")
	}
}
