package main

import (
	"context"
	"fmt"
	"time"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// layer is one public call of the compilation pipeline, in core's order.
// The scheduling call is split by backend.
type layer int

const (
	lBuild layer = iota
	lMII
	lList
	lMirs
	lAnalyze
	lExpand
	lEmit
	lVerify
	numLayers
)

// layerMetrics names each layer's busy-time and allocation metrics.
var layerMetrics = [numLayers]struct{ busy, alloc string }{
	lBuild:   {"ir.build_s", "ir.alloc_mb"},
	lMII:     {"sched.mii_s", "sched.mii_alloc_mb"},
	lList:    {"sched.list_s", "sched.list_alloc_mb"},
	lMirs:    {"mirs.schedule_s", "mirs.alloc_mb"},
	lAnalyze: {"regpress.analyze_s", "regpress.alloc_mb"},
	lExpand:  {"sched.expand_s", "sched.expand_alloc_mb"},
	lEmit:    {"emit.emit_s", "emit.alloc_mb"},
	lVerify:  {"vm.verify_s", "vm.alloc_mb"},
}

// counts are the replay's work counts over one corpus pass. They are a
// pure function of the jobs, so every pass must reproduce them exactly.
type counts struct {
	Kinds                      [trace.NumKinds]int64 // events per trace.Kind
	CacheHits, CacheMisses     int64                 // Σ window-cache lookups
	SpillOps                   int64                 // Σ stores + reloads over spill events
	Edges, Unroll, PredBundles int64
	Trips                      int64 // Σ iterations the vm executed
	Fallbacks, PressureExcess  int64 // Σ Schedule.Stats entries
	Compiles                   int64
}

// recorder is the benchmark's trace.Recorder. It timestamps II attempts
// and victim→spill intervals in CPU time and counts every event kind; it
// allocates only when the attempt-duration slice grows.
type recorder struct {
	c                 *counts
	iiStart, victimAt time.Duration
	attempts          []time.Duration
	spill             time.Duration
}

func (r *recorder) Emit(e trace.Event) {
	r.c.Kinds[e.Kind]++
	switch e.Kind {
	case trace.KindIIStart:
		r.iiStart = cpuNow()
	case trace.KindIIEnd:
		r.attempts = append(r.attempts, cpuNow()-r.iiStart)
	case trace.KindVictim:
		r.victimAt = cpuNow()
	case trace.KindSpill:
		r.spill += cpuNow() - r.victimAt
		r.c.SpillOps += e.Arg + e.Aux
	case trace.KindCacheHit:
		r.c.CacheHits += e.Arg
	case trace.KindCacheMiss:
		r.c.CacheMisses += e.Arg
	}
}

// replayer re-runs compilations layer by layer, timing each public call
// in CPU time from outside and attributing heap allocation to it.
type replayer struct {
	rec   recorder
	busy  [numLayers]time.Duration
	alloc [numLayers]uint64
	rt    *runtimeStats
}

func newReplayer(c *counts) *replayer {
	return &replayer{rec: recorder{c: c}, rt: newRuntimeStats()}
}

func (rp *replayer) start() (time.Duration, uint64) {
	a := rp.rt.allocBytes()
	return cpuNow(), a
}

func (rp *replayer) stop(l layer, t time.Duration, a uint64) {
	rp.busy[l] += cpuNow() - t
	rp.alloc[l] += rp.rt.allocBytes() - a
}

// replay compiles j the way core.CompileWithOpts does with Exec on, one
// public call at a time, with the recorder attached to the backend.
func (rp *replayer) replay(j job) (o outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			o, err = outcome{Failed: true}, fmt.Errorf("panic: %v", p)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), driver.DefaultTimeout)
	defer cancel()
	l, m, c := j.loop, j.mach, rp.rec.c
	fail := func(err error) (outcome, error) { return outcome{Failed: true}, err }
	if err := m.Validate(); err != nil {
		return fail(err)
	}

	t, a := rp.start()
	g, err := ir.Build(l, m, nil)
	rp.stop(lBuild, t, a)
	if err != nil {
		return fail(err)
	}
	c.Edges += int64(len(g.Edges))

	t, a = rp.start()
	mii, err := sched.ComputeMII(g, m)
	rp.stop(lMII, t, a)
	if err != nil {
		return fail(err)
	}

	sl := lList
	if _, ok := j.backend.(*mirs.Scheduler); ok {
		sl = lMirs
	}
	t, a = rp.start()
	s, err := j.backend.Schedule(&sched.Request{Ctx: ctx, Loop: l, Machine: m, Graph: g, MII: &mii, Recorder: &rp.rec})
	rp.stop(sl, t, a)
	if err != nil {
		return fail(err)
	}
	c.Fallbacks += int64(s.Stats["single_cluster_fallback"])
	c.PressureExcess += int64(s.Stats["pressure_excess"])

	t, a = rp.start()
	press, err := regpress.Analyze(s)
	rp.stop(lAnalyze, t, a)
	if err != nil {
		return fail(err)
	}

	t, a = rp.start()
	ek, err := s.ExpandWith(press.Lifetimes)
	rp.stop(lExpand, t, a)
	if err != nil {
		return fail(err)
	}
	c.Unroll += int64(ek.Unroll)

	t, a = rp.start()
	prog, err := emit.Emit(ek)
	rp.stop(lEmit, t, a)
	if err != nil {
		return fail(err)
	}
	c.PredBundles += int64(prog.PredBundles())

	t, a = rp.start()
	rep, err := vm.VerifyProgram(ek, prog, vm.Options{Seed: core.ExecSeed(l.Name)})
	rp.stop(lVerify, t, a)
	if err != nil {
		return fail(err)
	}
	for _, trip := range rep.Trips {
		c.Trips += int64(trip)
	}
	c.Compiles++

	return outcome{
		II: s.II, MII: mii.MII, MaxLive: press.MaxLive, Unroll: ek.Unroll,
		FrameSlots: rep.FrameSlots, Cycles: rep.MVECycles, Bundles: rep.MVEBundles,
		Mismatches: len(rep.Mismatches), Fits: press.Fits(),
	}, nil
}

// tracedRun is the per-layer measurement: the same jobs replayed for
// the same number of passes as the untraced run it is compared with.
type tracedRun struct {
	rp        *replayer
	counts    counts        // first pass
	busy      time.Duration // Σ CPU time of the replays
	divergent []string      // replay ≠ core, or counts changed between passes
	failed    int
}

func runTraced(jobs []job, passes int, core []outcome) *tracedRun {
	tr := &tracedRun{}
	var c counts
	tr.rp = newReplayer(&c)
	for p := 0; p < passes; p++ {
		c = counts{}
		for i, j := range jobs {
			t0 := cpuNow()
			o, err := tr.rp.replay(j)
			tr.busy += cpuNow() - t0
			if err != nil {
				tr.failed++
			}
			if o != core[i] {
				tr.divergent = append(tr.divergent, fmt.Sprintf("replay of %s differs from core: %+v vs %+v (err %v)", jobName(j), o, core[i], err))
			}
		}
		if p == 0 {
			tr.counts = c
		} else if c != tr.counts {
			tr.divergent = append(tr.divergent, fmt.Sprintf("pass %d work counts differ from pass 0", p))
		}
	}
	return tr
}

func jobName(j job) string {
	return fmt.Sprintf("loop=%s backend=%s machine=%s", j.loop.Name, j.backend.Name(), j.mach.Name)
}
