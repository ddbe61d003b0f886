package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestProcCoroutineLifecycle: every goroutine proc owns a coroutine only
// while its body runs, so a world run to completion leaves the goroutine
// count where it started; and a body that panics inside its coroutine still
// aborts the run with the wrapped, unwrappable error shape.
func TestProcCoroutineLifecycle(t *testing.T) {
	const n = 64
	before := runtime.NumGoroutine()
	k := NewKernel()
	live := 0
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.Sleep(Time(i + 1))
			}
		})
	}
	k.At(1, func() { live = runtime.NumGoroutine() - before })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if live < n {
		t.Errorf("%d goroutines while %d procs were parked, want at least %d", live, n, n)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after the run, want %d as before it", after, before)
	}

	k = NewKernel()
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic(&coroTestErr{"boom"})
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `sim: proc "bad" panicked: boom`) {
		t.Fatalf("want the proc panic error, got %v", err)
	}
	var ce *coroTestErr
	if !errors.As(err, &ce) || ce.msg != "boom" {
		t.Fatalf("errors.As did not unwrap the panic value from %v", err)
	}
}

type coroTestErr struct{ msg string }

func (e *coroTestErr) Error() string { return e.msg }
