package main

import (
	"context"
	"fmt"
	"testing"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/report"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// perfRows measures the throughput rows of the benchmark-regression
// gate: the example corpus is compiled per backend × machine under
// testing.Benchmark and each row records allocations per full-corpus
// compile (the gated metric — near-deterministic for a fixed toolchain,
// see report.AllocHeadroom) alongside informational ns/op and loops/sec.
// "perf:examples" covers the gate machines the corpus fits on;
// "perf:tight" runs the same loops on the register-starved machine, so
// MIRS's spill path (victim selection, spill materialisation, the
// re-seat) is on the gated path too; "perf:exec" compiles the
// perf:examples grid with differential execution (core.Opts.Exec), so
// the emitter and the pkg/vm oracle are on it as well — every
// execution must verify clean; "perf:storm" compiles four generated
// storm-corner loops (45 ops, the generator's largest) on paper-4cluster,
// so the large-loop placement path — pick, pressure queries, victim
// searches, in-place spill migration — is allocation-gated too. The
// corpus labels keep these rows
// distinct from the driver-computed quality rows over the same loops;
// quality sums are included too, so a perf row gates exactly like any
// other row plus the allocation check.
func perfRows() (*report.File, error) {
	f := &report.File{}
	examples := ir.ExampleLoops()
	var storm []*ir.Loop
	for _, k := range gen.Corners() {
		if k.Tag == "storm" {
			storm = gen.CornerCorpus(1, 4, k)
		}
	}
	for _, set := range []struct {
		corpus   string
		loops    []*ir.Loop
		machines []*machine.Machine
		opts     core.Opts
	}{
		{"perf:examples", examples, []*machine.Machine{machine.Unified(), machine.Paper4Cluster()}, core.Opts{}},
		{"perf:tight", examples, []*machine.Machine{machine.Tight()}, core.Opts{}},
		{"perf:exec", examples, []*machine.Machine{machine.Unified(), machine.Paper4Cluster()}, core.Opts{Exec: true}},
		{"perf:storm", storm, []*machine.Machine{machine.Paper4Cluster()}, core.Opts{}},
	} {
		for _, be := range core.Backends() {
			for _, m := range set.machines {
				row, err := perfRow(set.corpus, set.loops, be, m, set.opts)
				if err != nil {
					return nil, err
				}
				f.Rows = append(f.Rows, row)
			}
		}
	}
	return f, nil
}

// perfRow benchmarks one backend × machine over one corpus.
func perfRow(corpus string, loops []*ir.Loop, be sched.Scheduler, m *machine.Machine, opts core.Opts) (report.Row, error) {
	var sumII, sumMaxLive, sumUnroll int
	var firstErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sumII, sumMaxLive, sumUnroll = 0, 0, 0
			for _, l := range loops {
				r, err := core.CompileSafeWith(context.Background(), be, l, m, opts)
				if err == nil && r.Verified != nil && !r.Verified.OK() {
					err = fmt.Errorf("execution mismatch:\n%s", r.Verified)
				}
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("%s on %s: %s: %w", be.Name(), m.Name, l.Name, err)
					}
					return
				}
				sumII += r.Schedule.II
				sumMaxLive += r.Pressure.MaxLive
				sumUnroll += r.Expanded.Unroll
			}
		}
	})
	if firstErr != nil {
		return report.Row{}, firstErr
	}
	nsPerOp := float64(res.NsPerOp())
	loopsPerSec := 0.0
	if nsPerOp > 0 {
		loopsPerSec = float64(len(loops)) / (nsPerOp / 1e9)
	}
	return report.Row{
		Backend:     be.Name(),
		Machine:     m.Name,
		Corpus:      corpus,
		Loops:       len(loops),
		SumII:       sumII,
		SumMaxLive:  sumMaxLive,
		SumUnroll:   sumUnroll,
		NsPerOp:     nsPerOp,
		AllocsPerOp: res.AllocsPerOp(),
		LoopsPerSec: loopsPerSec,
	}, nil
}
