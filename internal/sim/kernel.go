// Package sim provides a deterministic discrete-event simulation kernel.
//
// A simulated MPI rank is a Proc: either a goroutine with blocking calls
// (Spawn) or a spawn-free resumable state machine (SpawnTask) stepped in
// kernel context. Goroutine procs are lazy and transient — the coroutine
// exists only between the start event and body return — and hand control
// to and from the kernel by direct coroutine switches (iter.Pull), one per
// park and one per resume. Either way the kernel enforces strictly
// sequential execution: exactly one goroutine — the kernel loop or a single
// Proc — runs at any instant. Combined with a totally ordered event queue
// (time, then insertion sequence) this makes every simulation bit-for-bit
// reproducible.
//
// Time is virtual and expressed in nanoseconds. Nothing in this package
// consults the wall clock.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time = int64

// Convenience duration units, all in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// event is a scheduled callback, as AtCross buffers it in a sharded run's
// outboxes. Events with equal activation time fire in insertion order
// (seq), which keeps runs deterministic.
//
// seq is a composite key with two bands (see AtCross). Band 0 — plain
// At/AtCall events — uses the kernel's local insertion counter. Band 1 —
// cross-owner events — sets the top bit and encodes (owner, per-owner
// counter), a key that is a pure function of the program rather than of the
// global interleaving, which is what makes sharded execution bit-identical
// to serial. All band-1 events at a timestamp fire after all band-0 events
// at that timestamp, in (owner, counter) order.
type event struct {
	at  Time
	seq uint64
	callback
}

// callback is what an event runs: fn(arg). fn is a shared, capture-free
// function, so hot paths schedule with a pointer argument instead of
// allocating a fresh closure per event; At and After pass their closure as
// the argument of the callFunc trampoline.
type callback struct {
	fn  func(any)
	arg any
}

// entry is one pending event's heap key. It holds no pointers: the
// callback lives in the kernel's slab at slot, so sifting entries moves
// plain words and never triggers a GC write barrier.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
}

// Band-1 seq layout: [63]=1 | [40..62]=owner+1 (23 bits) | [0..39]=counter.
// owner -1 (the fabric engine pseudo-owner) encodes as 0.
const (
	crossBand       uint64 = 1 << 63
	crossOwnerShift        = 40
	crossOwnerMax          = 1<<23 - 2
	crossCntMax            = 1<<crossOwnerShift - 1
)

// callFunc is the trampoline of At and After. A func value is
// pointer-shaped, so storing the closure in arg allocates nothing.
func callFunc(x any) { x.(func())() }

// before reports whether e fires before o in the strict (at, seq) order,
// comparing the keys as one branch-free 128-bit unsigned number (at is
// never negative: nothing is scheduled before time zero).
func (e *entry) before(o *entry) bool {
	_, b := bits.Sub64(e.seq, o.seq, 0)
	_, b = bits.Sub64(uint64(e.at), uint64(o.at), b)
	return b != 0
}

// Kernel owns the virtual clock, the event queue and all Procs of one
// simulation run. The zero value is not usable; call NewKernel.
//
// The event queue is a 4-ary min-heap of pointer-free (at, seq, slot) keys
// over a slab of callbacks whose freed slots are reused, so the slab never
// outgrows the peak number of pending events and, once warmed up,
// scheduling performs zero allocations. The wider fan-out (4 children per
// node) halves the tree depth versus a binary heap, trading a few extra
// comparisons per level for far fewer cache-missing moves.
type Kernel struct {
	now     Time
	heap    []entry
	slab    []callback
	free    []uint32 // free slab slots
	seq     uint64
	procs   []*Proc
	started bool
	fail    error // first panic or kernel-level error observed

	// Watchdog state (see SetWatchdog): budgets that turn silent hangs and
	// livelocks into aborts with a diagnostic report.
	maxEvents uint64 // 0 = unlimited
	maxTime   Time   // 0 = unlimited
	nEvents   uint64

	// diag enables blocking-call-site capture in Proc.park (small per-park
	// cost, so opt-in via EnableDiagnostics).
	diag bool

	// diagProviders contribute extra per-proc state (e.g. RMA epoch dumps)
	// to deadlock and watchdog reports. Only invoked when building a report.
	diagProviders []func(*Proc) string

	// Sharded execution (see shards.go). group is non-nil when this kernel
	// is one shard of a Shards run; shardID is its index there (the fabric
	// stage uses index len(rank shards)). crossCnt holds the per-owner
	// band-1 counters, indexed by owner+1; in a sharded run each shard only
	// touches the counters of the owners it executes, so the slices never
	// race.
	group    *Shards
	shardID  int
	crossCnt []uint64
}

// NewKernel returns an empty simulation kernel at virtual time zero.
func NewKernel() *Kernel { return new(Kernel) }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// push stores e's callback in a free slab slot and its key in the heap.
func (k *Kernel) push(e event) {
	slot := uint32(len(k.slab))
	if n := len(k.free); n > 0 {
		slot, k.free = k.free[n-1], k.free[:n-1]
		k.slab[slot] = e.callback
	} else {
		k.slab = append(k.slab, e.callback)
	}
	h := append(k.heap, entry{at: e.at, seq: e.seq, slot: slot})
	i := len(h) - 1
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	k.heap = h
}

// pop removes the earliest event, frees its slab slot and returns its
// time and callback. The caller must ensure the heap is non-empty.
func (k *Kernel) pop() (Time, callback) {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.heap = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < min(c+4, n); j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	cb := k.slab[top.slot]
	k.slab[top.slot] = callback{} // release the callback's references
	k.free = append(k.free, top.slot)
	return top.at, cb
}

// At schedules fn to run in kernel context at virtual time t. Scheduling in
// the past is an error that aborts the run.
func (k *Kernel) At(t Time, fn func()) { k.AtCall(t, callFunc, fn) }

// After schedules fn to run d nanoseconds of virtual time from now.
func (k *Kernel) After(d Time, fn func()) { k.AtCall(k.now+d, callFunc, fn) }

// AtCall schedules fn(arg) at virtual time t. fn should be a shared,
// capture-free function: this form allocates nothing when arg is a
// pointer, which is what keeps the NIC pipeline and proc wakeups off the
// heap.
func (k *Kernel) AtCall(t Time, fn func(any), arg any) {
	if t < k.now {
		k.abort(fmt.Errorf("sim: event scheduled in the past: t=%d now=%d", t, k.now))
		return
	}
	k.seq++
	k.push(event{t, k.seq, callback{fn, arg}})
}

// AfterCall schedules fn(arg) d nanoseconds of virtual time from now.
func (k *Kernel) AfterCall(d Time, fn func(any), arg any) { k.AtCall(k.now+d, fn, arg) }

// AtCross schedules fn(arg) at virtual time t with a band-1 key derived from
// owner — the logical source of the event (a rank ID, or -1 for the fabric
// engine) — and routes it to the shard owning dst (a rank ID, or -1 for the
// fabric stage) when the kernel is part of a sharded run.
//
// The band-1 key (owner, per-owner counter) is a pure function of owner's own
// execution, not of the global event interleaving, so the firing order of
// cross events is identical whether the simulation runs serially or across
// any number of shards. Serial kernels use the exact same keys at the exact
// same call sites: all band-1 events at a timestamp fire after that
// timestamp's band-0 events, ordered by (owner, counter). Call sites whose
// events may land on another rank's shard (packet deliveries, credit returns
// crossing the fabric) must use this form; same-shard scheduling should keep
// using At/AtCall.
func (k *Kernel) AtCross(t Time, fn func(any), arg any, owner, dst int) {
	if t < k.now {
		k.abort(fmt.Errorf("sim: event scheduled in the past: t=%d now=%d", t, k.now))
		return
	}
	e := event{t, k.crossSeq(owner), callback{fn, arg}}
	if g := k.group; g != nil {
		if ds := g.shardFor(dst); ds != k.shardID {
			g.outbox[k.shardID][ds] = append(g.outbox[k.shardID][ds], e)
			return
		}
	}
	k.push(e)
}

// crossSeq mints the next band-1 key for owner. The counter table grows
// geometrically: owners met in ascending order cost O(log n) reallocations.
func (k *Kernel) crossSeq(owner int) uint64 {
	if owner < -1 || owner > crossOwnerMax {
		panic(fmt.Sprintf("sim: cross-event owner %d out of range", owner))
	}
	i := owner + 1
	if i >= len(k.crossCnt) {
		cnt := make([]uint64, max(i+1, 2*len(k.crossCnt)))
		copy(cnt, k.crossCnt)
		k.crossCnt = cnt
	}
	c := k.crossCnt[i]
	k.crossCnt[i] = c + 1
	if c > crossCntMax {
		panic(fmt.Sprintf("sim: cross-event counter overflow for owner %d", owner))
	}
	return crossBand | uint64(i)<<crossOwnerShift | c
}

// abort records a fatal kernel error; Run returns it once the active proc
// yields.
func (k *Kernel) abort(err error) {
	if k.fail == nil {
		k.fail = err
	}
}

// Spawn registers a new process whose body starts executing at the current
// virtual time. The body runs in its own goroutine under kernel scheduling.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt registers a new process whose body starts at virtual time t.
// Nothing is allocated for the goroutine until the start event fires; until
// then the proc reports "not yet started" in diagnostics.
func (k *Kernel) SpawnAt(t Time, name string, body func(*Proc)) *Proc {
	return k.spawn(t, &Proc{Name: name, body: body})
}

// SpawnTask registers a task proc whose state machine is first stepped at
// the current virtual time. See Task for the Step contract.
func (k *Kernel) SpawnTask(name string, t Task) *Proc {
	return k.SpawnTaskAt(k.now, name, t)
}

// SpawnTaskAt registers a task proc first stepped at virtual time t.
func (k *Kernel) SpawnTaskAt(at Time, name string, t Task) *Proc {
	return k.spawn(at, &Proc{Name: name, task: t})
}

// spawn registers p and schedules its start event at t.
func (k *Kernel) spawn(t Time, p *Proc) *Proc {
	p.k, p.ID, p.waitTag = k, len(k.procs), waitTagNotStarted
	k.procs = append(k.procs, p)
	k.AtCall(t, startProc, p)
	return p
}

// waitTagNotStarted is the wait tag of a spawned proc whose start event has
// not fired yet, so deadlock reports on worlds that hang before launch name
// the real state instead of an empty site.
const waitTagNotStarted = "not yet started"

// startProc is the shared, capture-free start event of SpawnAt/SpawnTaskAt.
// For a goroutine proc it creates the coroutine (lazy spawn: this is the
// first point any stack exists) and runs it until the body parks or
// returns. For a task proc it runs the first Step inline.
// The body reference is dropped once consumed so the proc does not pin its
// closure for the rest of the run.
func startProc(x any) {
	p := x.(*Proc)
	p.waitTag = ""
	if p.task != nil {
		p.k.stepTask(p)
		return
	}
	body := p.body
	p.body = nil
	p.startCoro(body)
}

// wakeProc is the shared, capture-free resume callback used by Sleep, Yield
// and Signal.Fire: scheduling it through AtCall costs no allocation. Task
// procs are stepped inline. A goroutine proc is resumed by a coroutine
// switch: the kernel blocks in next until the proc parks or finishes.
func wakeProc(x any) {
	p := x.(*Proc)
	if p.finished {
		return
	}
	if p.task != nil {
		p.k.stepTask(p)
		return
	}
	p.next()
}

// stepTask runs one Step of a task proc in kernel context and enforces the
// Task contract: the Step must have armed a wake source or finished the
// proc. Panics inside Step abort the run with the same error shape as a
// goroutine proc's panic, so failures are identical across the two forms.
func (k *Kernel) stepTask(p *Proc) {
	if p.finished {
		return
	}
	p.armed = false
	p.clearWait()
	p.runStep()
	if !p.finished && !p.armed {
		k.abort(fmt.Errorf("sim: task %q returned from Step without arming a wake or exiting", p.Name))
		p.finished = true
	}
	if p.finished {
		p.task = nil // release the state machine
	}
}

// runStep invokes Step with the panic recovery of Proc.run.
func (p *Proc) runStep() {
	defer p.recoverPanic()
	p.task.Step(p)
}

// SetWatchdog arms the kernel's hang protection: the run aborts with a
// diagnostic report once more than maxEvents events have been processed or
// once virtual time passes maxTime. Either budget may be zero to disable it.
// The event budget is what converts a livelock — procs waking each other at
// the same virtual instant forever, so the queue never drains — into an
// error instead of a hung `go test`.
func (k *Kernel) SetWatchdog(maxEvents uint64, maxTime Time) {
	k.maxEvents = maxEvents
	k.maxTime = maxTime
}

// EnableDiagnostics turns on blocking-call-site capture: every Proc.park
// records a short stack so deadlock reports name the blocking call. The
// runtime.Callers per park costs more than the park itself, so it is opt-in;
// internal/fuzz enables it only to replay a failed run.
func (k *Kernel) EnableDiagnostics() { k.diag = true }

// AddDiagProvider registers fn to contribute extra state (one string, may be
// multi-line) about a proc to deadlock/watchdog reports. Providers returning
// "" are skipped. internal/core registers one that dumps RMA epoch state.
func (k *Kernel) AddDiagProvider(fn func(*Proc) string) {
	k.diagProviders = append(k.diagProviders, fn)
}

// Run executes events until the queue drains. It returns an error if any
// proc panicked, if an event was scheduled in the past, if a watchdog budget
// was exceeded, or if the queue drained while procs were still parked
// (deadlock).
func (k *Kernel) Run() error {
	if k.started {
		return fmt.Errorf("sim: kernel already ran")
	}
	if k.group != nil {
		return fmt.Errorf("sim: kernel is a shard; drive it through Shards.Run")
	}
	k.started = true
	if err := k.Drain(); err != nil {
		return err
	}
	if stuck := k.parked(); len(stuck) > 0 {
		return fmt.Errorf("sim: deadlock at t=%d: parked procs with empty event queue: %s\n%s",
			k.now, strings.Join(stuck, ", "), k.report())
	}
	return nil
}

// Drain processes pending events until the queue is empty, without Run's
// run-once guard or deadlock detection; Run is Drain plus those two. It
// exists so microbenchmarks and allocation tests outside this package can
// pump the kernel in repeatable steps; simulations use Run. The watchdog
// budgets (SetWatchdog) ARE honored — a harness bug that makes a pumped
// chain self-reschedule forever must abort like any other livelock instead
// of hanging CI. Budgets accumulate across Drain calls, exactly as they
// would across the events of one Run.
func (k *Kernel) Drain() error {
	for len(k.heap) > 0 {
		at, cb := k.pop()
		k.now = at
		if k.maxTime > 0 && k.now > k.maxTime {
			return fmt.Errorf("sim: watchdog: virtual time %d exceeded horizon %d\n%s",
				k.now, k.maxTime, k.report())
		}
		k.nEvents++
		if k.maxEvents > 0 && k.nEvents > k.maxEvents {
			return fmt.Errorf("sim: watchdog: event budget %d exhausted at t=%d (possible livelock)\n%s",
				k.maxEvents, k.now, k.report())
		}
		cb.fn(cb.arg)
		if k.fail != nil {
			return k.fail
		}
	}
	return nil
}

// Events returns the number of events processed so far.
func (k *Kernel) Events() uint64 { return k.nEvents }

// nextAt returns the activation time of the earliest pending event.
func (k *Kernel) nextAt() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// runUntil executes every pending event with activation time strictly below
// horizon, including events those events insert locally. It is the per-round
// body of one shard: the per-event watchdog checks live at the round level
// (Shards.Run), so only abort propagation is handled here.
func (k *Kernel) runUntil(horizon Time) error {
	for len(k.heap) > 0 && k.heap[0].at < horizon {
		at, cb := k.pop()
		k.now = at
		k.nEvents++
		cb.fn(cb.arg)
		if k.fail != nil {
			return k.fail
		}
	}
	return nil
}

// parked lists the names of procs that are blocked with no pending wakeup.
func (k *Kernel) parked() []string {
	var names []string
	for _, p := range k.procs {
		if !p.finished {
			names = append(names, fmt.Sprintf("%s(wait=%s)", p.Name, p.waitTag))
		}
	}
	sort.Strings(names)
	return names
}

// report builds the per-proc diagnostic block of deadlock/watchdog errors:
// one section per unfinished proc with its wait tag, the blocking call site
// (when EnableDiagnostics was set) and any diag-provider state.
func (k *Kernel) report() string {
	var b strings.Builder
	b.WriteString("blocked procs:\n")
	if k.reportInto(&b) == 0 {
		b.WriteString("  (none)\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// reportInto appends this kernel's blocked-proc sections to b and returns
// how many it wrote (shared by Kernel.report and the aggregated
// Shards.report, which must render byte-identical text).
func (k *Kernel) reportInto(b *strings.Builder) int {
	n := 0
	for _, p := range k.procs {
		if p.finished {
			continue
		}
		n++
		fmt.Fprintf(b, "  %s: waiting on %q", p.Name, p.waitTag)
		if site := p.waitSite(); site != "" {
			fmt.Fprintf(b, " at %s", site)
		}
		b.WriteByte('\n')
		for _, fn := range k.diagProviders {
			if d := fn(p); d != "" {
				for _, line := range strings.Split(strings.TrimRight(d, "\n"), "\n") {
					fmt.Fprintf(b, "    %s\n", line)
				}
			}
		}
	}
	return n
}
