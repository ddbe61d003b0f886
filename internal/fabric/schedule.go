package fabric

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Scheduled fault injection: a deterministic adversary whose every decision
// is a pure function of the schedule and virtual time — no RNG stream is
// consumed at injection time. That makes it shard-safe where the
// probabilistic FaultProfile + ARQ sublayer (fault.go, reliable.go) is
// inherently serial: a scheduled death or flap window reads only immutable
// schedule state plus per-source-rank counters, each touched exclusively in
// its owning rank's shard context, so the same FaultSchedule replays bit
// for bit on the serial kernel and at any shard count.
//
// The model is endpoint/link failure, not message loss: a dead rank's NIC
// stops emitting and absorbing packets (drops at source while the source is
// dead, at destination while the destination is dead — including packets
// already in flight when death strikes); a flapped directed link *delays*
// departures until the window lifts instead of dropping them (a
// store-and-hold wire, so no retransmission machinery is needed and per-link
// FIFO order survives); deterministic per-packet jitter perturbs arrival
// times under a monotone per-link floor that preserves the FIFO order the
// RMA done-after-data guarantee relies on.
//
// Failure detection is explicit and deterministic: every surviving rank
// learns of a death exactly DetectDelay after it happens (an event on the
// rank's own kernel invoking the network's unreachable handler, the same
// hook the ARQ's retry-exhaustion declaration uses), and PeerUnreachable
// reports the peer dead from that instant on. There are no per-link
// detection races to model — which is precisely what keeps fault-induced
// *RMAError classes, messages and timestamps identical across shard counts.

// RankDeath kills one rank's NIC at a fixed virtual time. The rank's
// process keeps executing (a simulated host does not vanish; scenario
// bodies typically return at the death time), but no packet leaves or
// reaches it from At on.
type RankDeath struct {
	Rank int
	At   sim.Time
}

// LinkFlap takes one directed internode link down for [From, From+For):
// departures in the window are held and released together when it lifts,
// in send order.
type LinkFlap struct {
	Src, Dst int
	From     sim.Time
	For      sim.Time
}

// FaultSchedule is the complete, explicit adversary. The zero value is a
// lossless schedule.
type FaultSchedule struct {
	// Seed parameterizes the per-packet jitter hash. Two schedules that
	// differ only in Seed produce different (but each internally
	// deterministic) arrival perturbations.
	Seed uint64

	Deaths []RankDeath
	Flaps  []LinkFlap

	// Jitter, when positive, adds hash(Seed, src, dst, packet index) mod
	// (Jitter+1) to each internode packet's flight time.
	Jitter sim.Time

	// DetectDelay is the failure-detector latency: survivors are notified
	// (and PeerUnreachable flips) this long after a death. Zero selects
	// 4*(Alpha+AckLatency).
	DetectDelay sim.Time
}

// SchedStats counts one rank's scheduled-injector activity. TxDrops and
// Delayed are counted at the source, RxDrops at the destination — both in
// that rank's own shard context.
type SchedStats struct {
	TxDrops int64 // packets dropped because the source rank was dead
	RxDrops int64 // packets dropped on arrival at a dead destination
	Delayed int64 // departures held by a flap window
}

// schedNever marks a rank with no scheduled death.
const schedNever = sim.Time(1) << 62

// schedRankState is the mutable per-rank slice of the injector. Every
// field is read and written only by events running in the owning rank's
// context, so shards never contend.
type schedRankState struct {
	stats SchedStats
	// floor is the last scheduled arrival time per destination: the
	// monotone FIFO floor that keeps jittered/held packets in send order.
	floor map[int]sim.Time
	// seq numbers packets per destination for the jitter hash.
	seq map[int]uint64
}

// schedState is the network-wide injector: immutable schedule tables plus
// the per-rank mutable states.
type schedState struct {
	nw     *Network
	fs     FaultSchedule
	detect sim.Time
	// deadFrom[r] is rank r's death time (schedNever if it survives).
	// Read-only after EnableSchedule.
	deadFrom []sim.Time
	// flaps holds each directed link's down windows sorted by From.
	// Read-only after EnableSchedule.
	flaps map[linkKey][]LinkFlap
	rank  []schedRankState
}

// EnableSchedule switches the network's internode paths onto the scheduled
// fault injector. Unlike EnableFaults it is legal on sharded networks; it
// is mutually exclusive with EnableFaults and (for now) with a modeled
// topology — the congestion engine's hop-by-hop path has no hold-and-
// release hook yet, and fault studies run on the crossbar. Call before any
// traffic flows.
//
// Note the injector sits on the internode pipeline only: same-node traffic
// (ProcsPerNode > 1) takes the shared-memory path and is never faulted,
// exactly like the ARQ injector. Fault scenarios use ProcsPerNode = 1.
func (nw *Network) EnableSchedule(fs FaultSchedule) {
	if nw.sched != nil {
		panic("fabric: EnableSchedule called twice")
	}
	if nw.faults != nil {
		panic("fabric: EnableSchedule is mutually exclusive with EnableFaults")
	}
	if nw.topo != nil {
		panic("fabric: scheduled fault injection requires the crossbar fabric (topology engine has no link-hold hook)")
	}
	n := nw.N()
	ss := &schedState{
		nw:       nw,
		fs:       fs,
		detect:   fs.DetectDelay,
		deadFrom: make([]sim.Time, n),
		flaps:    make(map[linkKey][]LinkFlap),
		rank:     make([]schedRankState, n),
	}
	if ss.detect <= 0 {
		ss.detect = 4 * (nw.Cfg.Alpha + nw.Cfg.AckLatency)
	}
	if fs.Jitter < 0 {
		panic("fabric: FaultSchedule.Jitter must be non-negative")
	}
	for r := range ss.deadFrom {
		ss.deadFrom[r] = schedNever
	}
	for _, d := range fs.Deaths {
		if d.Rank < 0 || d.Rank >= n {
			panic(fmt.Sprintf("fabric: scheduled death of rank %d outside world of %d", d.Rank, n))
		}
		if d.At < 0 {
			panic(fmt.Sprintf("fabric: scheduled death of rank %d at negative time %d", d.Rank, d.At))
		}
		if ss.deadFrom[d.Rank] != schedNever {
			panic(fmt.Sprintf("fabric: rank %d scheduled to die twice", d.Rank))
		}
		ss.deadFrom[d.Rank] = d.At
	}
	for _, f := range fs.Flaps {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n || f.Src == f.Dst {
			panic(fmt.Sprintf("fabric: scheduled flap on invalid link %d->%d (world of %d)", f.Src, f.Dst, n))
		}
		if f.From < 0 || f.For <= 0 {
			panic(fmt.Sprintf("fabric: scheduled flap on link %d->%d with invalid window [%d,+%d)", f.Src, f.Dst, f.From, f.For))
		}
		key := linkKey{f.Src, f.Dst}
		ss.flaps[key] = append(ss.flaps[key], f)
	}
	for _, wins := range ss.flaps {
		sort.Slice(wins, func(i, j int) bool { return wins[i].From < wins[j].From })
	}
	nw.sched = ss
	// Deterministic failure detection: each survivor is told of each death
	// exactly detect after it happens, on its own kernel (so the
	// notification — and everything the core layer aborts in response —
	// stays in the survivor's shard context). The handler is read at fire
	// time: core installs it after network construction.
	for _, d := range fs.Deaths {
		dead, at := d.Rank, d.At+ss.detect
		for r := 0; r < n; r++ {
			if r == dead {
				continue
			}
			local := r
			nw.nics[r].k.At(at, func() {
				if h := nw.onUnreachable; h != nil {
					h(local, dead)
				}
			})
		}
	}
}

// SchedStats returns rank r's scheduled-injector counters (zero when the
// scheduled injector is disabled).
func (nw *Network) SchedStats(r int) SchedStats {
	if nw.sched == nil {
		return SchedStats{}
	}
	return nw.sched.rank[r].stats
}

// deadBy reports whether rank r's NIC is dead at time t.
func (ss *schedState) deadBy(r int, t sim.Time) bool { return t >= ss.deadFrom[r] }

// detected reports whether rank peer's death has propagated to the failure
// detectors by time t.
func (ss *schedState) detected(peer int, t sim.Time) bool {
	return ss.deadFrom[peer] != schedNever && t >= ss.deadFrom[peer]+ss.detect
}

// flapEnd returns the lift time of the flap window covering (src->dst, now),
// or 0 when the link is up. Windows per link are few; linear scan.
func (ss *schedState) flapEnd(src, dst int, now sim.Time) sim.Time {
	wins := ss.flaps[linkKey{src, dst}]
	for _, w := range wins {
		if w.From > now {
			break // sorted: no later window can cover now
		}
		if now < w.From+w.For {
			return w.From + w.For
		}
	}
	return 0
}

// schedHash is a splitmix64-style finalizer over (seed, link, packet
// index): the entire jitter schedule in one pure function.
func schedHash(seed uint64, src, dst int, seq uint64) uint64 {
	z := seed
	z += uint64(src)*0x9E3779B97F4A7C15 + uint64(dst)*0xC2B2AE3D27D4EB4F + seq*0x165667B19E3779F9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// send runs in descTxDone when the scheduled injector owns the internode
// path: credit return follows the lossless timing (the hardware hop-level
// ACK — endpoint failures must not leak the sender's credit pool), then the
// packet is dropped, held, jittered or delivered per the schedule.
func (ss *schedState) send(d *desc) {
	n := d.n
	p := d.pkt
	rail := d.rail
	d.pkt = nil
	k := n.k
	cfg := &n.nw.Cfg
	if n.creditInit > 0 {
		k.AfterCall(cfg.Alpha+cfg.AckLatency, descCreditReturn, d)
	} else {
		n.freeDesc(d)
	}
	now := k.Now()
	src, dst := p.Src, p.Dst
	st := &ss.rank[src]
	if ss.deadBy(src, now) {
		// The source NIC is dead: the packet never leaves the host.
		st.stats.TxDrops++
		ss.dropTx(p)
		n.tryStart(rail)
		return
	}
	depart := now
	if end := ss.flapEnd(src, dst, now); end > depart {
		st.stats.Delayed++
		depart = end
	}
	arrive := depart + cfg.Alpha
	if ss.fs.Jitter > 0 {
		if st.seq == nil {
			st.seq = make(map[int]uint64, 8)
		}
		seq := st.seq[dst]
		st.seq[dst] = seq + 1
		arrive += sim.Time(schedHash(ss.fs.Seed, src, dst, seq) % uint64(ss.fs.Jitter+1))
	}
	// Monotone per-link floor: held and jittered packets still arrive in
	// send order (same-instant cross events from one owner keep their
	// issue order in both serial and sharded kernels).
	if st.floor == nil {
		st.floor = make(map[int]sim.Time, 8)
	}
	if fl := st.floor[dst]; arrive < fl {
		arrive = fl
	}
	st.floor[dst] = arrive
	k.AtCross(arrive, schedDeliver, p, src, dst)
	n.tryStart(rail)
}

// schedDeliver arrives at the destination rank's kernel: a packet reaching
// a NIC that died mid-flight is absorbed, anything else is delivered.
func schedDeliver(x any) {
	p := x.(*Packet)
	nw := p.nw
	ss := nw.sched
	if ss.deadBy(p.Dst, nw.nics[p.Dst].k.Now()) {
		ss.rank[p.Dst].stats.RxDrops++
		if p.pooled {
			nw.release(p) // destination context: release goes to dst pool
		}
		return
	}
	nw.deliver(p)
}

// dropTx retires a packet at its source. Mirrors Network.release but
// returns to the *source* rank's pool — the drop event runs in the source
// shard's context, and the destination pool must only ever be touched by
// its own shard.
func (ss *schedState) dropTx(p *Packet) {
	if !p.pooled {
		return
	}
	nw := ss.nw
	src := p.Src
	*p = Packet{nw: nw, pooled: true}
	if nw.sharded {
		nw.pktFreeBy[src] = append(nw.pktFreeBy[src], p)
		return
	}
	nw.pktFree = append(nw.pktFree, p)
}

// diag renders rank r's view of the schedule for watchdog and abort
// reports: which peers are dead (and whether detection has fired), which
// of r's links are inside or facing a flap window, and r's drop/hold
// counters.
func (ss *schedState) diag(r int) string {
	now := ss.nw.nics[r].k.Now()
	var b strings.Builder
	for peer, at := range ss.deadFrom {
		if at == schedNever {
			continue
		}
		state := "undetected"
		if ss.detected(peer, now) {
			state = "detected"
		}
		if now < at {
			state = fmt.Sprintf("scheduled at t=%d", at)
			fmt.Fprintf(&b, "sched: rank %d death %s\n", peer, state)
			continue
		}
		fmt.Fprintf(&b, "sched: rank %d DEAD since t=%d (%s, detect at t=%d)\n", peer, at, state, at+ss.detect)
	}
	keys := make([]linkKey, 0, len(ss.flaps))
	for key := range ss.flaps {
		if key.src == r || key.dst == r {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	for _, key := range keys {
		for _, w := range ss.flaps[key] {
			state := "pending"
			switch {
			case now >= w.From+w.For:
				state = "lifted"
			case now >= w.From:
				state = fmt.Sprintf("DOWN, up at t=%d", w.From+w.For)
			}
			fmt.Fprintf(&b, "sched: link %d->%d flap [t=%d,+%d) %s\n", key.src, key.dst, w.From, w.For, state)
		}
	}
	st := ss.rank[r].stats
	if st != (SchedStats{}) {
		fmt.Fprintf(&b, "sched stats: txDrops=%d rxDrops=%d delayed=%d\n", st.TxDrops, st.RxDrops, st.Delayed)
	}
	return b.String()
}
