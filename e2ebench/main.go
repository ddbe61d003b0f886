// Command e2ebench is the repository's end-to-end benchmark: it times whole
// simulations the way a user regenerating a figure or clearing a fuzz
// campaign pays for them, in host time, and checks every simulated output
// against its golden or oracle. See README.md for the workloads and metrics.
//
//	go run . -workload all -seconds 30            # every workload, one process
//	go run . -workload lu64 -seed 3 -trace 1      # per-layer split of one workload
//	go run . -write-golden                        # after an intended output change
//
// The last line of standard output is a JSON summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/par"
)

// Set-up is timed before every pass in a window that starts from a freshly
// collected heap and one untimed build, then repeats the build at least
// setupRepMin times and for at least setupRepMinDur. A window's time is its
// median build, so a collection that lands in a few builds does not move
// it. The run reports its fastest window: on a shared host, the machine
// alternates between quiet spells and spells about 1.5x slower that last
// tens of seconds, and a change in construction cost moves every window.
const (
	setupRepMin    = 5
	setupRepMinDur = 50 * time.Millisecond
)

func main() {
	name := flag.String("workload", "all", "scale512, lu64, fuzz-lossy or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per workload")
	traced := flag.Int("trace", 0, "1: profile every second pass and print the per-layer metrics instead")
	root := flag.String("root", "..", "repository root (holds results/lu_2048.txt and e2ebench/)")
	writeGolden := flag.Bool("write-golden", false, "regenerate e2ebench/golden from the current simulator and exit")
	flag.Parse()

	// Serial simulation: one P runs the simulation and shares it with the
	// collector, so no cross-core goroutine handoff adds noise to wall time.
	runtime.GOMAXPROCS(1)
	par.SetWorkers(1)
	bench.SetShards(0)

	if *writeGolden {
		if err := regenerateGolden(*root); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	all := []*workload{newScale512(scaleGolden), newLU64(luGolden, *root), newFuzzLossy()}
	var chosen []*workload
	for _, w := range all {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (-workload %q, -seconds %g, -trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}

	sum := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range chosen {
		profDir := ""
		if *traced == 1 {
			var err error
			if profDir, err = profileDir(*root); err != nil {
				fmt.Fprintln(os.Stderr, "e2ebench:", err)
				os.Exit(1)
			}
		}
		res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), profDir)
		if profDir != "" {
			os.RemoveAll(profDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(os.Stdout)
		prefix := ""
		if len(chosen) > 1 {
			prefix = w.name + "/"
		}
		ms := res.endToEnd()
		if *traced == 1 {
			ms = res.perLayer()
		}
		for _, m := range ms {
			sum.Metrics[prefix+m.name] = metric{Value: m.value, Unit: m.unit}
		}
		sum.Attempted += res.attempted
		sum.Failed += res.failed
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is a set of whole passes, each measured on its own.
type phase struct {
	passes            int
	setup             [][]buildTimes // per set-up window, every build
	wallS, cpuS       []float64      // per pass
	wallRef, cpuRef   []float64      // per pass, in reference kernel runs
	refS              []float64      // reference kernel wall seconds, per pass
	heapMB            []float64      // peak live heap per pass
	allocMB, gcCycles []float64      // per pass
	simMs, simRef     []float64      // per simulation
	last              passResult
	failed, attempted int
	problems          []string
}

// passRecord keeps a pass's raw times until the run's last probe has run.
type passRecord struct {
	ph        *phase
	wall, cpu time.Duration
	sims      []time.Duration
	probe     int // index of the probe before the pass; more may follow inside it
}

// result is one workload's run: the untraced passes and, in a traced run,
// the CPU-profiled passes that alternate with them.
type result struct {
	name              string
	plain, traced     *phase
	layers            map[string]float64 // CPU seconds per layer per traced pass
	overhead          float64            // median cost of profiling a pass, as a share
	attempted, failed int
	problems          []string
}

// run runs passes until starting another would overrun budget; it always
// runs at least one, and two when traced. A probe of the host runs before
// every pass and after the last, and between the simulations of unprofiled
// passes that time each one; each pass and simulation is also measured
// against the host speed the probes around it read (see stretches). With
// profDir set, every second pass runs under a CPU profile written there, so
// profiled and unprofiled passes meet the same warm-up and drift.
func run(w *workload, seed uint64, budget time.Duration, profDir string) (*result, error) {
	res := &result{name: w.name, plain: &phase{}}
	minPasses := 1
	if profDir != "" {
		res.traced = &phase{}
		minPasses = 2
	}
	var (
		profiles []string
		recs     []passRecord
		probes   []probe
	)
	heap := startHeapPeak()
	defer heap.stop()
	probeHost() // warm-up, untimed
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); i >= minPasses && el+el/time.Duration(i) > budget {
			break
		}
		ph := res.plain
		if profDir != "" && i%2 == 1 {
			ph = res.traced
		}
		ph.setup = append(ph.setup, timeSetup(w, seed))
		first := len(probes)
		probes = append(probes, probeHost())
		var (
			out       = passResult{probeInside: ph == res.plain}
			wall, cpu time.Duration
			gc0, gc1  gcCounters
		)
		measure := func() {
			heap.reset()
			gc0 = readGC()
			cpu0, t0 := cpuTime(), time.Now()
			w.pass(seed, i, &out)
			wall, cpu, gc1 = time.Since(t0)-out.probeWall, cpuTime()-cpu0-out.probeCPU, readGC()
		}
		if ph == res.traced {
			path := filepath.Join(profDir, fmt.Sprintf("pass%d.pb.gz", i))
			if err := withCPUProfile(path, measure); err != nil {
				return nil, err
			}
			profiles = append(profiles, path)
		} else {
			measure()
		}
		recs = append(recs, passRecord{ph, wall, cpu, out.sims, first})
		probes = append(probes, out.probes...)
		ph.passes++
		ph.heapMB = append(ph.heapMB, float64(heap.value())/1e6)
		ph.allocMB = append(ph.allocMB, float64(gc1.allocBytes-gc0.allocBytes)/1e6)
		ph.gcCycles = append(ph.gcCycles, float64(gc1.cycles-gc0.cycles))
		ph.attempted += len(out.sims)
		ph.failed += out.failed
		ph.problems = append(ph.problems, out.problems...)
		ph.last = out
	}
	probes = append(probes, probeHost())
	host := stretches(probes)
	cpus := make([]float64, len(recs)) // per pass in run order, in kernel runs
	for k, rec := range recs {
		end := len(host)
		if k+1 < len(recs) {
			end = recs[k+1].probe
		}
		each := host[rec.probe:end]
		ref, ph := meanProbe(each), rec.ph
		ph.wallS = append(ph.wallS, rec.wall.Seconds())
		ph.cpuS = append(ph.cpuS, rec.cpu.Seconds())
		ph.wallRef = append(ph.wallRef, rec.wall.Seconds()/ref.wall)
		ph.cpuRef = append(ph.cpuRef, rec.cpu.Seconds()/ref.cpu)
		ph.refS = append(ph.refS, ref.wall)
		for j, d := range rec.sims {
			sref := ref
			if len(each) == len(rec.sims) {
				sref = each[j]
			}
			ph.simMs = append(ph.simMs, d.Seconds()*1e3)
			ph.simRef = append(ph.simRef, d.Seconds()/sref.wall)
		}
		cpus[k] = rec.cpu.Seconds() / ref.cpu
	}
	if res.traced != nil {
		cpu, err := layerCPU(profiles)
		if err != nil {
			return nil, err
		}
		res.layers = map[string]float64{}
		for l, s := range cpu {
			res.layers[l] = s / float64(res.traced.passes)
		}
		res.overhead = profilingOverhead(cpus)
	}
	for _, ph := range []*phase{res.plain, res.traced} {
		if ph != nil {
			res.attempted += ph.attempted
			res.failed += ph.failed
			res.problems = append(res.problems, ph.problems...)
		}
	}
	return res, nil
}

// withCPUProfile runs f under a CPU profile written to path.
func withCPUProfile(path string, f func()) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return err
	}
	f()
	pprof.StopCPUProfile()
	return out.Close()
}

// profilingOverhead compares the CPU time of each profiled (odd) pass, in
// reference kernel runs so that host drift between passes cancels, with
// the mean of its unprofiled neighbours, and returns the median share.
func profilingOverhead(cpus []float64) float64 {
	var shares []float64
	for i := 1; i < len(cpus); i += 2 {
		base, n := cpus[i-1], 1.0
		if i+1 < len(cpus) {
			base, n = base+cpus[i+1], 2
		}
		base /= n
		shares = append(shares, (cpus[i]-base)/base)
	}
	return median(shares)
}

// timeSetup builds w's worlds from a freshly collected heap, repeatedly
// until both set-up minimums are met, and returns every build's times.
func timeSetup(w *workload, seed uint64) []buildTimes {
	runtime.GC()
	w.build(seed) // warm-up, untimed
	var bs []buildTimes
	for start := time.Now(); len(bs) < setupRepMin || time.Since(start) < setupRepMinDur; {
		bs = append(bs, w.build(seed))
	}
	return bs
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

// setupTime is the run's fastest set-up window, by its median build, for
// the part of set-up that part picks out.
func (r *result) setupTime(part func(buildTimes) time.Duration) float64 {
	fastest := math.Inf(1)
	for _, win := range r.plain.setup {
		var xs []float64
		for _, b := range win {
			xs = append(xs, part(b).Seconds())
		}
		fastest = min(fastest, median(xs))
	}
	return fastest
}

// endToEnd are the gated metrics, from the untraced phase. Pass and
// simulation times are in reference kernel runs (unit ref), each measured
// against the host speed the probes around it read; set-up stays in seconds.
func (r *result) endToEnd() []namedMetric {
	return []namedMetric{
		{"setup_s", r.setupTime(buildTimes.setup), "s"},
		{"wall_ref", median(r.plain.wallRef), "ref"},
		{"cpu_ref", median(r.plain.cpuRef), "ref"},
		{"sim_p50_ref", median(r.plain.simRef), "ref"},
		{"peak_heap_mb", median(r.plain.heapMB), "MB"},
	}
}

// hostTimes are the same medians in host seconds, and the reference
// kernel's own time, which says how fast the host ran.
func (r *result) hostTimes() []namedMetric {
	return []namedMetric{
		{"host.wall_s", median(r.plain.wallS), "s"},
		{"host.cpu_s", median(r.plain.cpuS), "s"},
		{"host.sim_p50_ms", median(r.plain.simMs), "ms"},
		{"host.ref_s", median(r.plain.refS), "s"},
	}
}

// perLayerNames are the layers whose self time the traced run reports.
// other collects the harness and the small packages (par, stats, trace).
var perLayerNames = []string{"sim", "sched", "topo", "fabric", "core", "mpi", "fuzz", "bench", "gc", "other"}

// perLayer are the traced run's metrics.
func (r *result) perLayer() []namedMetric {
	self := map[string]float64{}
	for l, s := range r.layers {
		if !slices.Contains(perLayerNames, l) {
			l = layerOther
		}
		self[l] += s
	}
	var ms []namedMetric
	for _, l := range perLayerNames {
		ms = append(ms, namedMetric{l + ".self_s", self[l], "s"})
	}
	last := r.traced.last
	return append(append(ms,
		namedMetric{"topo.build_s", r.setupTime(func(b buildTimes) time.Duration { return b.topo }), "s"},
		namedMetric{"topo.queued_us", last.queuedUs, "us"},
		namedMetric{"topo.credit_stalls", last.creditStalls, "count"},
		namedMetric{"mpi.world_build_s", r.setupTime(func(b buildTimes) time.Duration { return b.world }), "s"},
		namedMetric{"core.runtime_build_s", r.setupTime(func(b buildTimes) time.Duration { return b.runtime }), "s"},
		namedMetric{"fuzz.seeds", float64(last.fuzzSeeds), "count"},
		namedMetric{"fuzz.failures", float64(last.fuzzFailures), "count"},
		namedMetric{"gc.alloc_mb", median(r.plain.allocMB), "MB"},
		namedMetric{"gc.cycles", median(r.plain.gcCycles), "count"},
		namedMetric{"trace.overhead_frac", r.overhead, "ratio"},
	), r.hostTimes()...)
}

// print writes the human-readable report: every end-to-end metric by name
// and unit, the tail with its percentile and sample count, and the per-layer
// table of a traced run.
func (r *result) print(f io.Writer) {
	p := r.plain
	fmt.Fprintf(f, "== %s: %d passes, %d simulations, %d failed\n", r.name, p.passes, len(p.simMs), r.failed)
	for _, m := range append(r.endToEnd(), r.hostTimes()...) {
		fmt.Fprintf(f, "  %-16s %12.6f %s\n", m.name, m.value, m.unit)
	}
	if v, pct, ok := tail(p.simMs); ok {
		fmt.Fprintf(f, "  %-16s %12.6f ms   (p%.1f of n=%d)\n", "host.sim_tail_ms", v, pct, len(p.simMs))
	} else {
		fmt.Fprintf(f, "  %-16s %12s      (n=%d < %d simulations)\n", "host.sim_tail_ms", "omitted", len(p.simMs), minTailSamples)
	}
	fmt.Fprintf(f, "  %-16s %12.6f      (%d of %d)\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, pr := range r.problems {
		fmt.Fprintf(os.Stderr, "%s: FAIL %s\n", r.name, pr)
	}
	if r.traced == nil {
		return
	}
	fmt.Fprintf(f, "  per layer (%d profiled passes; self time per pass, innermost repro/internal frame):\n", r.traced.passes)
	for _, m := range r.perLayer() {
		fmt.Fprintf(f, "    %-22s %14.6f %s\n", m.name, m.value, m.unit)
	}
}

// regenerateGolden rewrites the golden outputs from the current simulator.
// A change that alters simulated output on purpose runs this and says so.
func regenerateGolden(root string) error {
	dir := filepath.Join(root, "e2ebench", "golden")
	scale := bench.FigScaleRanks([]int{scaleRanks}, scaleIters).String() + "\n"
	var lu strings.Builder
	for _, s := range bench.AllSeries {
		lu.WriteString(luLine(bench.RunLU(luRanks, s, bench.DefaultLUParams(luMatrix))))
	}
	if err := os.WriteFile(filepath.Join(dir, "scale512.txt"), []byte(scale), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "lu64.txt"), []byte(lu.String()), 0o644)
}
