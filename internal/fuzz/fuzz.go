package fuzz

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/topo"
)

// Config selects how one program runs: the RMA mode and the fabric,
// kernel and epoch transport under it. Every field is a pure input, so a
// (seed, Config) pair replays exactly.
type Config struct {
	Mode core.Mode
	// Lossy runs over a fault-injecting fabric with the recoverable schedule
	// LossyProfile(seed) derives: drops, duplicates, corruption, jitter and
	// link flaps, all repaired by the reliability sublayer — so the very
	// same invariants must hold as on a pristine network.
	Lossy bool
	// Topo routes over a modeled interconnect of this kind with the
	// seed-varied shape TopoSpec derives (link arbitration, credit flow
	// control, congestion). Crossbar — the zero value — is the untouched
	// default fabric. Composes with Lossy.
	Topo topo.Kind
	// Shards runs on a sharded kernel with this many shards (<= 1: serial).
	// Every observable is bit-identical to serial — sharding changes only
	// wall-clock. check refuses it with Lossy or a modeled Topo.
	Shards int
	// Signal creates every window on the counter-signal epoch transport
	// (core.TransportSignal) with the seed-derived replica base SignalBase
	// returns — most seeds start the counters a few steps below the uint64
	// wrap, so grant/done streams cross the boundary mid-program and the
	// serial-number arithmetic is exercised for real. Composes with Lossy,
	// Topo and Shards; the invariant battery is unchanged plus the signal
	// conservation check (see Verify).
	Signal bool
}

// check refuses a sharded kernel under the two fabrics that are serial-only:
// the fault injector draws every packet's faults from one RNG stream, and
// the tracer samples CongWait congestion only on the serial kernel
// (internal/core/tracing.go), so a sharded run would change the transcript.
func (c Config) check() error {
	switch {
	case c.Shards > 1 && c.Lossy:
		return fmt.Errorf("fuzz: -shards %d with -lossy: the fault injector draws from one RNG stream, so lossy runs need the serial kernel", c.Shards)
	case c.Shards > 1 && c.Topo != topo.Crossbar:
		return fmt.Errorf("fuzz: -shards %d with -topo %s: the tracer samples CongWait congestion only on the serial kernel, so topology runs need it", c.Shards, c.Topo)
	}
	return nil
}

// Failure describes one failing (seed, Config) pair with every violated
// invariant. Seed and Config alone reproduce it.
type Failure struct {
	Config
	Seed     uint64
	KV       bool // failed in the chaos KV-store arm (see kv.go)
	Problems []string
}

// String renders the failure with the cmd/fuzz command that reruns exactly
// it. Flush mode on the signal transport has no cmd/fuzz spelling (-mode
// signal runs new and vanilla), so that failure prints its Check call as Go.
func (f Failure) String() string {
	s := fmt.Sprintf("seed=%d mode=%s:\n  %s\n  reproduce: ", f.Seed, f.Mode, strings.Join(f.Problems, "\n  "))
	mode := f.Mode.String()
	switch {
	case f.KV:
		mode = "kv"
	case f.Signal && f.Mode == core.ModeFlush:
		return s + fmt.Sprintf("fuzz.Check(%d, %#v)", f.Seed, f.Config)
	case f.Signal:
		mode = "signal"
	}
	s += fmt.Sprintf("go run ./cmd/fuzz -seed %d -n 1 -mode %s", f.Seed, mode)
	if f.Lossy {
		s += " -lossy"
	}
	if f.Topo != topo.Crossbar {
		s += " -topo " + f.Topo.String()
	}
	if f.Shards > 1 {
		s += fmt.Sprintf(" -shards %d", f.Shards)
	}
	return s
}

// Options configures a fuzzing campaign.
type Options struct {
	N     int         // number of programs (consecutive seeds)
	Seed  uint64      // first seed
	Modes []core.Mode // modes to run each program under; nil = both
	// Workers is the number of seeds checked concurrently; 0 uses the
	// process-wide default (par.Workers). Seeds are independent
	// simulations, so throughput scales near-linearly with cores.
	Workers int
	// Report, when non-nil, is called once per seed, in seed order, with
	// that seed's failures (possibly none). Seed-order delivery makes the
	// campaign transcript identical at any worker count.
	Report func(seed uint64, fs []Failure)
	// Progress, when non-nil, is called after each program, in seed order,
	// with running totals (programs done, failures so far).
	Progress func(done, failures int)
	// Lossy, Topo, Shards and Signal set the Config fields of the same name
	// for every run.
	Lossy  bool
	Topo   topo.Kind
	Shards int
	Signal bool
}

// BothModes is the default mode set.
var BothModes = []core.Mode{core.ModeNew, core.ModeVanilla}

// config is the Config Campaign runs each seed under in mode.
func (o Options) config(mode core.Mode) Config {
	return Config{Mode: mode, Lossy: o.Lossy, Topo: o.Topo, Shards: o.Shards, Signal: o.Signal}
}

// Validate reports why Campaign cannot run o (it would panic), or nil.
func (o Options) Validate() error { return o.config(core.ModeNew).check() }

// Check generates the program for one seed (GenerateFlush in flush mode),
// runs it under c and verifies every invariant. nil means the run is clean.
func Check(seed uint64, c Config) *Failure {
	p := generate(seed, c.Mode == core.ModeFlush)
	if problems := Verify(p, c.Mode, Run(p, c)); len(problems) > 0 {
		return &Failure{Config: c, Seed: seed, Problems: problems}
	}
	return nil
}

// Campaign runs N consecutive seeds under every requested mode and collects
// all failures. Seeds are fanned across Workers goroutines; Report and
// Progress still fire strictly in seed order, so the campaign's output is
// byte-for-byte identical to a serial run.
func Campaign(o Options) []Failure {
	modes := o.Modes
	if modes == nil {
		modes = BothModes
	}
	return runCampaign(o, func(i int) []Failure {
		seed := o.Seed + uint64(i)
		var fs []Failure
		for _, mode := range modes {
			if f := Check(seed, o.config(mode)); f != nil {
				fs = append(fs, *f)
			}
		}
		return fs
	})
}

// runCampaign fans check(i) for i in [0, N) across Workers goroutines and
// collects in index order: Report and Progress fire strictly in seed order,
// so the transcript is byte-for-byte identical at any worker count.
func runCampaign(o Options, check func(i int) []Failure) []Failure {
	var failures []Failure
	collect := func(i int, fs []Failure) {
		failures = append(failures, fs...)
		if o.Report != nil {
			o.Report(o.Seed+uint64(i), fs)
		}
		if o.Progress != nil {
			o.Progress(i+1, len(failures))
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	if workers > o.N {
		workers = o.N
	}
	if workers <= 1 {
		for i := 0; i < o.N; i++ {
			collect(i, check(i))
		}
		return failures
	}
	// Ordered streaming: workers pull the next unclaimed seed and publish
	// its result on that seed's slot; the collector consumes slots in seed
	// order while later seeds keep running behind it.
	slots := make([]chan []Failure, o.N)
	for i := range slots {
		slots[i] = make(chan []Failure, 1)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= o.N {
					return
				}
				slots[i] <- check(i)
			}
		}()
	}
	for i := 0; i < o.N; i++ {
		collect(i, <-slots[i])
	}
	return failures
}
