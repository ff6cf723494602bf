package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// job is one compilation: a loop through one backend for one machine.
type job struct {
	loop    *ir.Loop
	backend sched.Scheduler
	mach    *machine.Machine
}

// workload names a corpus generator. setup generates n loops from the
// generator seed, constructs the stock machines and returns the jobs in
// loop-major, backend, machine order (the driver's order).
//
// The loop population is fixed by the generator seed, not by the run
// seed: a few loops dominate the tail workloads' compile time, so a
// population redrawn per run would move throughput and fit_frac by far
// more than any change worth measuring. genSeed is the default
// population; heldOut is a second one for confirming a claim on loops the
// change was not tuned on.
type workload struct {
	name             string
	genSeed, heldOut uint64
	loops            int // corpus size per pass
	setup            func(genSeed uint64, n int) []job
}

// workloads are the benchmark's inputs. The corpus sizes keep one pass
// at 2–8 s on a 2-core x86 host, so a run of tens of seconds makes
// several passes and each job's latency is a median over them, and each
// corpus has at least 40 jobs so the tail percentile has ten samples
// beyond it.
var workloads = []workload{
	// fit-exec is the common case: schedules fit, II stays near MII and
	// the spill path is nearly idle, so execution, emission and MII work
	// show. A spill-path optimisation must show no change here.
	{name: "fit-exec", genSeed: 1, heldOut: 2, loops: 250, setup: func(seed uint64, n int) []job {
		return grid(gen.Corpus(seed, n),
			[]sched.Scheduler{sched.ListScheduler{}, mirs.New()},
			[]*machine.Machine{machine.Unified(), machine.Paper4Cluster()})
	}},
	// spill-tail is the register-starved tail the paper is about:
	// scheduling with integrated spilling is nearly all of the time.
	{name: "spill-tail", genSeed: 1, heldOut: 2, loops: 40, setup: func(seed uint64, n int) []job {
		storm := gen.CornerCorpus(seed, (n+1)/2, corner("storm"))
		pressure := gen.CornerCorpus(seed, n/2, corner("pressure"))
		loops := make([]*ir.Loop, 0, n)
		for i := range storm {
			loops = append(loops, storm[i])
			if i < len(pressure) {
				loops = append(loops, pressure[i])
			}
		}
		return grid(loops, []sched.Scheduler{mirs.New()}, []*machine.Machine{machine.Tight()})
	}},
	// scale stresses the multi-cluster II search with graphs far larger
	// than any corner makes, instead of spilling. Sizes stay well inside
	// the per-compilation deadline so failures never depend on timing.
	{name: "scale", genSeed: 1, heldOut: 2, loops: 20, setup: func(seed uint64, n int) []job {
		loops := make([]*ir.Loop, n)
		for i := range loops {
			s := gen.Mix(seed, i)
			ops := 96 + int(s%33)
			loops[i] = gen.Generate(s, gen.Knobs{Tag: "scale", Ops: ops})
			loops[i].Name = fmt.Sprintf("s%04d-%dops", i, ops)
		}
		return grid(loops,
			[]sched.Scheduler{sched.ListScheduler{}, mirs.New()},
			[]*machine.Machine{machine.Paper4Cluster()})
	}},
}

// prepare is the timed set-up of one run: it builds the workload's jobs
// and applies the run seed, which draws the compilation order and — by
// suffixing loop names, from which core derives the differential
// execution oracle's seed — the operand values and addresses every
// compiled loop is executed on. Schedules do not depend on loop names.
func prepare(w workload, genSeed, runSeed uint64, n int) []job {
	jobs := w.setup(genSeed, n)
	renamed := map[*ir.Loop]bool{}
	for _, j := range jobs {
		if !renamed[j.loop] {
			renamed[j.loop] = true
			j.loop.Name = fmt.Sprintf("%s.r%d", j.loop.Name, runSeed)
		}
	}
	rng := rand.New(rand.NewPCG(runSeed, 0x6d697273))
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corner returns the stock generator preset with the given tag.
func corner(tag string) gen.Knobs {
	for _, k := range gen.Corners() {
		if k.Tag == tag {
			return k
		}
	}
	panic("perfbench: no generator corner " + tag)
}

func grid(loops []*ir.Loop, backends []sched.Scheduler, machines []*machine.Machine) []job {
	jobs := make([]job, 0, len(loops)*len(backends)*len(machines))
	for _, l := range loops {
		for _, be := range backends {
			for _, m := range machines {
				jobs = append(jobs, job{loop: l, backend: be, mach: m})
			}
		}
	}
	return jobs
}
