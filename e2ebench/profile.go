package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// The traced run splits CPU time by layer from runtime/pprof CPU profiles.
// A sample belongs to the innermost frame that lies in a repro/internal/*
// package, so runtime work a layer triggers (allocation, stack captures,
// goroutine handoff it calls for) is charged to that layer. Samples with no
// such frame are pure runtime or harness time: gc when a collector frame is
// on the stack, other when the benchmark's own code is, sched otherwise.

const internalPrefix = "repro/internal/"

// Layer names of samples that no repro/internal frame claims.
const (
	layerGC    = "gc"
	layerSched = "sched"
	layerOther = "other"
)

// gcFrames are runtime functions that root or drive collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.gcStart",
	"runtime.gcMarkDone",
	"runtime.gcMarkTermination",
	"runtime.gcAssistAlloc",
	"runtime.gcDrain",
	"runtime.markroot",
	"runtime.runfinq",
	"runtime._GC",
}

// layerOf attributes one stack, given innermost frame first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l := internalLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return layerGC
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return layerOther
		}
	}
	return layerSched
}

// internalLayer returns the repro/internal package a function belongs to
// ("sim" for repro/internal/sim.(*Kernel).Run), or "".
func internalLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// layerCPU merges CPU profile files and returns CPU seconds per layer. The
// go toolchain's pprof, which already builds the program, decodes them.
func layerCPU(files []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-symbolize=none", "-traces"}, files...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return layerTraces(bytes.NewReader(out))
}

// layerTraces sums the output of pprof -traces by layer. Each sample is a
// block after a dashed separator line: its value and innermost frame on the
// first line, then one outer frame per line.
func layerTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var stack []string
	var value time.Duration
	inSample := false
	flush := func() {
		if inSample && value >= 0 {
			out[layerOf(stack)] += value.Seconds()
		}
		stack, inSample = stack[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inSample = true
			value = -1
		case !inSample || len(f) == 0:
		case value < 0:
			v, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			value, stack = v, append(stack, f[1])
		default:
			stack = append(stack, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// profileDir makes a directory for a run's CPU profiles under the build
// directory of the checkout at root.
func profileDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "profiles-")
}
