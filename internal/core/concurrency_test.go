package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// TestConcurrentCompilesShareBackends is the -race regression for the
// sharing contract of sched.Prober: one instance of each backend serves
// many compilations at once, the way driver workers and serve leaders
// share theirs, over shared machines and package-level caches
// (unit-preference tables). Any mutable state leaking out of a probe's
// attempter shows up as a race report here, or as a result that differs
// from a sequential compilation with a fresh backend.
func TestConcurrentCompilesShareBackends(t *testing.T) {
	// opt stays on the smaller loops with a small budget, so its SAT
	// solves stay short under -race.
	const optOps, optBudget = 16, 2000
	fresh := func() []sched.Scheduler {
		return append(Backends(), Opt(optBudget))
	}
	shared := fresh()
	loops := gen.Corpus(11, 24)
	m := machine.Paper4Cluster()

	type job struct{ loop, backend int }
	var jobs []job
	for i, l := range loops {
		for b, be := range shared {
			if be.Name() == "opt" && l.NumInstrs() > optOps {
				continue
			}
			jobs = append(jobs, job{i, b})
		}
	}
	digest := func(r *Result) string {
		return fmt.Sprintf("II=%d %v %v", r.Schedule.II, r.Schedule.Placements, r.Schedule.Stats)
	}
	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for j, jb := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := CompileSafeWith(context.Background(), shared[jb.backend], loops[jb.loop], m, Opts{})
			if err != nil {
				errs[j] = err
				return
			}
			got[j] = digest(r)
		}()
	}
	wg.Wait()

	for j, jb := range jobs {
		label := loops[jb.loop].Name + "/" + shared[jb.backend].Name()
		if errs[j] != nil {
			t.Fatalf("%s: %v", label, errs[j])
		}
		r, err := compile(fresh()[jb.backend], loops[jb.loop], m)
		if err != nil {
			t.Fatalf("%s sequential: %v", label, err)
		}
		if want := digest(r); got[j] != want {
			t.Fatalf("%s: concurrent compile diverged from sequential:\n got %s\nwant %s", label, got[j], want)
		}
	}
}
