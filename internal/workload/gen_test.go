package workload

import (
	"testing"

	"repro/internal/trace"
)

// TestGenDropsExecutedSteps checks that a step is unreachable from the
// queue once it has run, so executed closures (and what they capture) are
// garbage at once, and that the queue is reused after it drains.
func TestGenDropsExecutedSteps(t *testing.T) {
	cs := NewCodeSpace(0x1000)
	r := cs.NewRoutine("r", 1<<16)
	e := NewEmitter(1)
	e.Call(r)
	batches := 0
	g := NewGen(e, func(g *Gen) bool {
		if batches == 3 {
			return false
		}
		batches++
		for k := 0; k < 5; k++ {
			g.Enqueue(func(e *Emitter) { e.ALU(3, false) })
		}
		return true
	})
	var in trace.Instr
	for g.Next(&in) {
		for k, step := range g.queue[:g.head] {
			if step != nil {
				t.Fatalf("after %d instructions: executed step %d still queued", g.Drawn, k)
			}
		}
		if cap(g.queue) > 8 {
			t.Fatalf("queue grew to capacity %d for 5-step batches", cap(g.queue))
		}
	}
	if batches != 3 || g.Drawn == 0 {
		t.Fatalf("%d batches, %d instructions drawn", batches, g.Drawn)
	}
	if g.MaxBuffered < 3 {
		t.Errorf("MaxBuffered = %d, a step emits at least 3 instructions", g.MaxBuffered)
	}
}
