package sim

import "testing"

// BenchmarkParkResume measures the scheduler handoff cost: a single proc
// yielding in a loop, so each op is one park (proc -> kernel) plus one
// resume (kernel -> proc) plus one wake event; both switches are iter.Pull
// coroutine switches. cmd/perfgate gates the same loop as handoff ops/sec.
func BenchmarkParkResume(b *testing.B) {
	k := NewKernel()
	k.Spawn("yielder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTaskStep measures the spawn-free fast path: a sim.Task state
// machine re-arming a zero-delay wake each step, so each op is one Step
// dispatch plus one wake event and no goroutine switch at all.
func BenchmarkTaskStep(b *testing.B) {
	k := NewKernel()
	t := &benchTask{n: b.N}
	k.SpawnTask("stepper", t)
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

type benchTask struct{ i, n int }

func (t *benchTask) Step(p *Proc) {
	if t.i++; t.i >= t.n {
		p.TaskExit()
		return
	}
	p.TaskYield()
}
