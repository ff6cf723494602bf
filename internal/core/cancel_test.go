package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// TestCompileCancelledBeforeStart pins the fast path: a context that is
// already cancelled fails every backend before any scheduling work, and
// the error chain exposes context.Canceled to errors.Is.
func TestCompileCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := ir.ExampleLoops()[0]
	m := machine.Unified()
	for _, be := range Backends() {
		_, err := CompileSafeWith(ctx, be, l, m, Opts{})
		if err == nil {
			t.Fatalf("backend %q: want error from cancelled context, got nil", be.Name())
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("backend %q: error %v does not wrap context.Canceled", be.Name(), err)
		}
	}
}

// blockingSched waits for its request context to fire, then surfaces
// the cancellation error — a stand-in for a backend stuck in a long II
// search that honours the Request.Cancelled contract.
type blockingSched struct{ entered chan struct{} }

// Name identifies the test backend.
func (b *blockingSched) Name() string { return "blocking" }

// Schedule blocks until the request's context fires.
func (b *blockingSched) Schedule(req *sched.Request) (*sched.Schedule, error) {
	close(b.entered)
	if req.Ctx == nil {
		return nil, errors.New("blockingSched: request carries no context")
	}
	<-req.Ctx.Done()
	return nil, req.Cancelled()
}

// TestCompileDeadlineCancelsInFlight proves the context is threaded all
// the way into sched.Request: a backend blocked mid-schedule is released
// by the deadline and the caller sees context.DeadlineExceeded promptly,
// rather than an abandoned goroutine running to completion.
func TestCompileDeadlineCancelsInFlight(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	be := &blockingSched{entered: make(chan struct{})}
	start := time.Now()
	_, err := CompileSafeWith(ctx, be, ir.ExampleLoops()[0], machine.Unified(), Opts{})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	select {
	case <-be.entered:
	default:
		t.Fatal("backend was never entered — deadline fired before scheduling started")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — compile ran past its deadline", elapsed)
	}
}
