//go:build go1.23

// The tag raises this file's language version to go1.23 (package iter) while
// go.mod stays at go 1.22: e2ebench/go.mod pins 1.22 and requires this
// module, so bumping the root would fail its build with "updates to go.mod
// needed". Building the package therefore needs a Go >= 1.23 toolchain.

package sim

import "iter"

// startCoro runs p's body as a runtime coroutine until its first park or
// return. next (wakeProc) and yield (park) switch directly between kernel
// and proc, bypassing the scheduler's run queues.
func (p *Proc) startCoro(body func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(body)
	})
	p.next()
}
