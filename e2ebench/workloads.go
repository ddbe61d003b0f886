package main

import (
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fuzz"
	"repro/internal/mpi"
	"repro/internal/topo"
)

// A workload is set up, then run pass after pass. A pass is a fixed amount
// of work made of independent simulations, each checked against its golden
// output or oracle.
type workload struct {
	name string
	// build constructs the simulated worlds one pass runs, the way the
	// pass's entry points construct them, and times each constructor.
	build func(seed uint64) buildTimes
	// pass runs pass number i and records its simulations in out.
	pass func(seed uint64, i int, out *passResult)
}

// buildTimes are the boundary spans of world construction. world covers
// mpi.NewWorldShards, which builds the fabric and its topology graph;
// topo is one extra, separately timed topo.Build of the same shape.
type buildTimes struct {
	topo, world, runtime time.Duration
}

// setup is the time to build the worlds before their first event.
func (b buildTimes) setup() time.Duration { return b.world + b.runtime }

// passResult is what one pass reports.
type passResult struct {
	sims     []time.Duration // host time per simulation, in run order
	failed   int             // simulations that panicked or missed their golden
	problems []string
	// Exact congestion counters from the scale report, summed over series.
	queuedUs, creditStalls float64
	// Fuzz campaign counts: seeds checked (per transport) and failures.
	fuzzSeeds, fuzzFailures int
	// probeInside asks timed to probe the host between simulations; probes
	// are those probes, and probeWall and probeCPU the time they took,
	// which the pass's own times exclude.
	probeInside         bool
	probes              []probe
	probeWall, probeCPU time.Duration
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// timed runs one simulation, records its host time and turns a panic into a
// failure. With probeInside set, it probes the host first unless this is
// the pass's first simulation, so that each simulation is measured against
// the host speed the probes around it read.
func (r *passResult) timed(name string, sim func() error) {
	if r.probeInside && len(r.sims) > 0 {
		cpu0, t0 := cpuTime(), time.Now()
		r.probes = append(r.probes, probeHost())
		r.probeWall += time.Since(t0)
		r.probeCPU += cpuTime() - cpu0
	}
	t0 := time.Now()
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return sim()
	}()
	r.sims = append(r.sims, time.Since(t0))
	if err != nil {
		r.fail("%s: %v", name, err)
	}
}

// buildWorld times one world and runtime construction.
func buildWorld(bt *buildTimes, n int, cfg fabric.Config, faults *fabric.FaultProfile) {
	t0 := time.Now()
	w := mpi.NewWorldShards(n, cfg, 0)
	if faults != nil {
		w.Net.EnableFaults(*faults)
		w.EnableDiagnostics()
	}
	t1 := time.Now()
	core.NewRuntime(w)
	bt.world += t1.Sub(t0)
	bt.runtime += time.Since(t1)
}

// ---- scale512 -------------------------------------------------------------

const (
	scaleRanks = 512
	scaleIters = 1
)

//go:embed golden/scale512.txt
var scaleGolden string

func newScale512(golden string) *workload {
	return &workload{
		name: "scale512",
		build: func(uint64) buildTimes {
			var bt buildTimes
			cfg := bench.Config()
			spec := bench.ScaleTopo(scaleRanks)
			// The calibration fabric resolves before calling topo.Build.
			spec.LinkBytesPerUs = cfg.BytesPerUs
			spec.HopLatency = cfg.Alpha / 2
			t0 := time.Now()
			if _, err := topo.Build(spec, cfg.NodeOf(scaleRanks-1)+1); err != nil {
				panic(err)
			}
			bt.topo = time.Since(t0)
			cfg.Topo = bench.ScaleTopo(scaleRanks)
			for range bench.ScaleSeries {
				buildWorld(&bt, scaleRanks, cfg, nil)
			}
			return bt
		},
		pass: func(_ uint64, _ int, out *passResult) {
			out.timed("scale512", func() error {
				rep := bench.FigScaleRanks([]int{scaleRanks}, scaleIters)
				row := strconv.Itoa(scaleRanks)
				for _, s := range bench.ScaleSeries {
					out.queuedUs += rep.Queued.Get(row, s.String())
					out.creditStalls += rep.Stalls.Get(row, s.String())
				}
				if got := rep.String() + "\n"; got != golden {
					return fmt.Errorf("report differs from golden:\n%s", got)
				}
				return nil
			})
		},
	}
}

// ---- lu64 -----------------------------------------------------------------

const (
	luRanks  = 64
	luMatrix = 2048
)

//go:embed golden/lu64.txt
var luGolden string

// luLine renders one RunLU result exactly: virtual ns and the unrounded
// communication share.
func luLine(r bench.LUResult) string {
	return fmt.Sprintf("%s\t%d\t%s\n", r.Series, int64(r.Total), strconv.FormatFloat(r.CommPct, 'g', -1, 64))
}

// paperRows reads the committed 64-process rows of results/lu_2048.txt:
// overall time [s] then communication share [%], one cell per series.
func paperRows(root string) (times, comm []string, err error) {
	b, err := os.ReadFile(filepath.Join(root, "results", "lu_2048.txt"))
	if err != nil {
		return nil, nil, err
	}
	var rows [][]string
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 1+len(bench.AllSeries) && f[0] == strconv.Itoa(luRanks) {
			rows = append(rows, f[1:])
		}
	}
	if len(rows) != 2 {
		return nil, nil, fmt.Errorf("results/lu_2048.txt: want 2 rows for %d processes, found %d", luRanks, len(rows))
	}
	return rows[0], rows[1], nil
}

// checkLU compares one result with its golden line and with the committed
// two-decimal paper row.
func checkLU(r bench.LUResult, si int, golden string, times, comm []string) error {
	line := luLine(r)
	if !strings.Contains(golden, line) {
		return fmt.Errorf("result %q is not in the golden", strings.TrimSpace(line))
	}
	if got := fmt.Sprintf("%.2f", r.PerRankS); got != times[si] {
		return fmt.Errorf("overall time %s s, results/lu_2048.txt has %s", got, times[si])
	}
	if got := fmt.Sprintf("%.2f", r.CommPct); got != comm[si] {
		return fmt.Errorf("communication %s %%, results/lu_2048.txt has %s", got, comm[si])
	}
	return nil
}

func newLU64(golden, root string) *workload {
	times, comm, rowsErr := paperRows(root)
	return &workload{
		name: "lu64",
		build: func(uint64) buildTimes {
			var bt buildTimes
			for range bench.AllSeries {
				buildWorld(&bt, luRanks, bench.Config(), nil)
			}
			return bt
		},
		pass: func(_ uint64, _ int, out *passResult) {
			for si, s := range bench.AllSeries {
				out.timed("lu64 "+s.String(), func() error {
					if rowsErr != nil {
						return rowsErr
					}
					return checkLU(bench.RunLU(luRanks, s, bench.DefaultLUParams(luMatrix)), si, golden, times, comm)
				})
			}
		},
	}
}

// ---- fuzz-lossy -----------------------------------------------------------

// fuzzSeedsPerPass seeds run per pass, once on GATS and once on the
// counter-signal transport.
const fuzzSeedsPerPass = 100

var fuzzModes = []core.Mode{core.ModeNew, core.ModeVanilla, core.ModeFlush}

// fuzzFirstSeed spreads --seed values a million fuzz seeds apart, so runs
// with different seeds check disjoint programs.
func fuzzFirstSeed(seed uint64, pass int) uint64 {
	return seed*1_000_000 + 1 + uint64(pass)*fuzzSeedsPerPass
}

func newFuzzLossy() *workload {
	return &workload{
		name: "fuzz-lossy",
		build: func(seed uint64) buildTimes {
			// The campaign's executor builds one world per (seed, mode,
			// transport); the transport does not change the world.
			var bt buildTimes
			first := fuzzFirstSeed(seed, 0)
			for s := first; s < first+fuzzSeedsPerPass; s++ {
				for _, m := range fuzzModes {
					p := fuzz.Generate(s)
					if m == core.ModeFlush {
						p = fuzz.GenerateFlush(s)
					}
					cfg := fabric.DefaultConfig()
					cfg.ProcsPerNode = p.ProcsPerNode
					faults := fuzz.LossyProfile(s)
					for range 2 { // GATS, then signal
						buildWorld(&bt, p.NRanks, cfg, &faults)
					}
				}
			}
			return bt
		},
		pass: func(seed uint64, i int, out *passResult) {
			first := fuzzFirstSeed(seed, i)
			for _, signal := range []bool{false, true} {
				runCampaign(first, signal, out)
			}
		},
	}
}

// runCampaign runs one serial lossy campaign, timing each seed between the
// seed-ordered Report callbacks. A seed with any oracle violation fails; a
// panic fails every seed not yet reported.
func runCampaign(first uint64, signal bool, out *passResult) {
	reported := 0
	last := time.Now()
	defer func() {
		if p := recover(); p != nil {
			for ; reported < fuzzSeedsPerPass; reported++ {
				out.sims = append(out.sims, time.Since(last))
				out.fail("fuzz seed %d signal=%v: panic: %v", first+uint64(reported), signal, p)
			}
		}
	}()
	fuzz.Campaign(fuzz.Options{
		N: fuzzSeedsPerPass, Seed: first, Modes: fuzzModes,
		Workers: 1, Lossy: true, Signal: signal,
		Report: func(seed uint64, fs []fuzz.Failure) {
			now := time.Now()
			out.sims = append(out.sims, now.Sub(last))
			last = now
			reported++
			out.fuzzSeeds++
			out.fuzzFailures += len(fs)
			if len(fs) > 0 {
				out.fail("%s", fs[0])
			}
		},
	})
}
