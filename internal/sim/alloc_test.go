package sim

import "testing"

// Allocation budgets for the event-scheduling hot path: once the heap's
// backing array has warmed up, scheduling and draining events must not
// touch the allocator at all. Any regression here (a reintroduced closure,
// a boxed event, a per-push heap node) shows up as a nonzero count.

func noop() {}

func noopArg(any) {}

func TestEventSchedulingAllocs(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 1024; i++ { // warm the heap's backing array
		k.At(k.Now()+Time(i%7), noop)
	}
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			k.At(k.Now()+Time(i%7), noop)
		}
		k.Drain()
	})
	if allocs != 0 {
		t.Errorf("At+Drain: %.1f allocs/run, want 0", allocs)
	}
	// A capturing closure built once: At stores the func value itself in
	// the event's argument, which must not box it.
	n := 0
	tick := func() { n++ }
	allocs = testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			k.At(k.Now()+Time(i%7), tick)
		}
		k.Drain()
	})
	if allocs != 0 {
		t.Errorf("At(closure)+Drain: %.1f allocs/run, want 0", allocs)
	}
	if n == 0 {
		t.Error("closure never ran")
	}
}

func TestAtCallSchedulingAllocs(t *testing.T) {
	k := NewKernel()
	arg := new(int)
	for i := 0; i < 1024; i++ {
		k.AtCall(k.Now()+Time(i%7), noopArg, arg)
	}
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			k.AtCall(k.Now()+Time(i%7), noopArg, arg)
		}
		k.Drain()
	})
	if allocs != 0 {
		t.Errorf("AtCall+Drain: %.1f allocs/run, want 0", allocs)
	}
}

// TestParkResumeAllocs is the goroutine-proc counterpart of the budgets
// above: once the proc's coroutine exists, each park (Sleep) and resume
// (the wake event switching back to it) must allocate nothing.
func TestParkResumeAllocs(t *testing.T) {
	k := NewKernel()
	done := false
	k.Spawn("sleeper", func(p *Proc) {
		for !done {
			p.Sleep(1)
		}
	})
	pump := func() {
		if err := k.runUntil(k.Now() + 64); err != nil {
			t.Fatal(err)
		}
	}
	pump() // start the coroutine and warm the heap
	allocs := testing.AllocsPerRun(200, pump)
	if allocs != 0 {
		t.Errorf("park+resume: %.1f allocs/run, want 0", allocs)
	}
	done = true
	if err := k.Drain(); err != nil {
		t.Fatal(err)
	}
}
