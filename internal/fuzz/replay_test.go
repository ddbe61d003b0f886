package fuzz

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDiagnosticsChangeNoObservable: call-site capture schedules no events,
// so a clean run with diagnostics on and off produces the same trace, event
// count, memories and stats. This is what lets Run execute without
// capture and turn it on only to replay a failure.
func TestDiagnosticsChangeNoObservable(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := Generate(seed)
		for _, mode := range []core.Mode{core.ModeNew, core.ModeVanilla} {
			c := Config{Mode: mode, Lossy: true}
			off := execute(p, c, nil, false)
			on := execute(p, c, nil, true)
			if off.Err != nil || on.Err != nil {
				t.Fatalf("seed %d %v: clean program failed: off=%v on=%v", seed, mode, off.Err, on.Err)
			}
			if !reflect.DeepEqual(off.Events, on.Events) || off.KernelEvents != on.KernelEvents ||
				!reflect.DeepEqual(off.Mems, on.Mems) || !reflect.DeepEqual(off.Stats, on.Stats) {
				t.Errorf("seed %d %v: diagnostics changed the run's observables", seed, mode)
			}
		}
	}
}

// hangingProgram is a two-rank nonblocking GATS round whose access and
// exposure groups disagree: rank 1 is listed as both origin and target, so
// it acts only as an origin and never posts the exposure rank 0's put
// needs. Both ranks hang in the program's final r.Wait in run.go.
func hangingProgram() *Program {
	put := []OpSpec{{Kind: OpPut, Target: 1, Off: 64, Size: 8}}
	return &Program{
		Seed:         1,
		NRanks:       2,
		ProcsPerNode: 1,
		Windows:      []WindowSpec{{AccSize: 64, SliceSz: 64, Op: core.OpSum, DT: core.TInt64}},
		Rounds: []Round{{
			Kind:        RGATS,
			Origins:     []int{0, 1},
			Targets:     []int{1},
			Ops:         [][]OpSpec{put, nil},
			Nonblocking: []bool{true, true},
			Compute:     []int64{0, 0},
		}},
	}
}

// TestFailureReplayExact: the error Run returns for a failing run —
// the replay with call-site capture — is exactly the error of a run that had
// capture on from the start, and names the blocking call in this package.
func TestFailureReplayExact(t *testing.T) {
	p := hangingProgram()
	want := execute(p, Config{Mode: core.ModeNew}, nil, true)
	if want.Err == nil {
		t.Fatal("hanging program ran clean")
	}
	got := Run(p, Config{Mode: core.ModeNew})
	if got.Err == nil || got.Err.Error() != want.Err.Error() {
		t.Fatalf("replayed error differs from a diagnostics-on run:\n got: %v\nwant: %v", got.Err, want.Err)
	}
	if !strings.Contains(got.Err.Error(), "internal/fuzz/run.go:") {
		t.Errorf("replayed error names no call site in internal/fuzz/run.go:\n%v", got.Err)
	}
}
