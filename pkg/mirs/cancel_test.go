package mirs

import (
	"context"
	"errors"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// cancelAfter is a recorder that cancels a context at the n-th event of
// one kind — a deterministic way to fire a cancel at a chosen point of
// an II search.
type cancelAfter struct {
	kind   trace.Kind
	n      int
	cancel context.CancelFunc
	events []trace.Event
}

func (c *cancelAfter) Emit(e trace.Event) {
	c.events = append(c.events, e)
	if e.Kind == c.kind {
		c.n--
		if c.n == 0 {
			c.cancel()
		}
	}
}

// iiEnds counts the finished candidate attempts in a trace.
func iiEnds(events []trace.Event) int {
	n := 0
	for _, e := range events {
		if e.Kind == trace.KindIIEnd {
			n++
		}
	}
	return n
}

// TestCancelMidII proves that a cancel arriving mid-search stops the
// search at the backend's next checkpoint. For MIRS that is the
// bounded-latency poll inside the backtracking loop: a cancel a few
// placements into the *first* candidate II must surface from that same
// II. Before the poll existed, cancellation was only checked at
// candidate-II boundaries — the 80-op loop's first II completes (the
// uncancelled control run pins that), so a boundary-only implementation
// would return the finished schedule and never see the cancel. List
// attempts have no backtracking and no inner poll, so for list the
// checkpoint is sched.Drive's poll between candidates: a cancel at the
// end of the first candidate must stop the search before the second.
func TestCancelMidII(t *testing.T) {
	// A loop big enough that one MIRS II attempt spans several poll
	// windows (the poll checks every 64 placement steps; 80 ops ⇒ at
	// least one mid-II check before the attempt can complete).
	bulk := gen.Generate(1, gen.Knobs{Tag: "bulk", Ops: 80, MemRatio: 0.3, LiveIns: 2})
	for _, c := range []struct {
		be   sched.Scheduler
		l    *ir.Loop
		m    *machine.Machine
		kind trace.Kind
		n    int
		ends int // candidates that may finish before the cancel lands
	}{
		{New(), bulk, machine.Unified(), trace.KindPlace, 10, 0},
		{sched.ListScheduler{}, ir.DotProduct(), machine.Paper4Cluster(), trace.KindIIEnd, 1, 1},
	} {
		t.Run(c.be.Name(), func(t *testing.T) {
			// Control: without a cancel the search finishes more
			// candidates than the cancelled run may — the property that
			// makes the cancelled run below meaningful.
			var buf trace.Buffer
			if _, err := c.be.Schedule(&sched.Request{Loop: c.l, Machine: c.m, Recorder: &buf}); err != nil {
				t.Fatalf("control compilation failed: %v", err)
			}
			if got := iiEnds(buf.Events()); got <= c.ends {
				t.Skipf("control finished %d candidates; loop shape no longer suits this test", got)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rec := &cancelAfter{kind: c.kind, n: c.n, cancel: cancel}
			_, err := c.be.Schedule(&sched.Request{Ctx: ctx, Loop: c.l, Machine: c.m, Recorder: rec})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got err=%v, want context.Canceled", err)
			}
			// Had the search run past its checkpoint, another IIEnd
			// event would precede the return.
			if got := iiEnds(rec.events); got != c.ends {
				t.Fatalf("%d candidates finished, want %d — the cancel did not stop the search at its checkpoint", got, c.ends)
			}
		})
	}
}
