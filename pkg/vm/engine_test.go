package vm

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// compiled is one emitted compilation of the engine tests' population.
type compiled struct {
	name string
	ek   *sched.ExpandedKernel
	prog *emit.Program
}

// kernels holds the population's expanded kernels, scheduled once per
// test binary: scheduling dominates the engine tests' cost, and no test
// modifies a kernel.
var kernels struct {
	once  sync.Once
	names []string
	eks   []*sched.ExpandedKernel
	err   error
}

// population emits fresh programs (tests may edit them) for a generated
// corpus plus one extra loop per knob corner on unified, paper-4cluster
// and tight by list and mirs. Compilations the expander rejects (unroll
// bound) are left out.
func population(t *testing.T) []compiled {
	t.Helper()
	kernels.once.Do(func() {
		loops := gen.Corpus(1, 30)
		for _, k := range gen.Corners() {
			loops = append(loops, gen.CornerCorpus(7, 1, k)...)
		}
		for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			for _, be := range []sched.Scheduler{sched.ListScheduler{}, mirs.New()} {
				for _, l := range loops {
					s, err := be.Schedule(&sched.Request{Loop: l, Machine: m})
					if err != nil {
						kernels.err = fmt.Errorf("Schedule(%s on %s by %s): %w", l.Name, m.Name, be.Name(), err)
						return
					}
					ek, err := s.Expand()
					if errors.Is(err, sched.ErrUnrollBound) {
						continue
					}
					if err != nil {
						kernels.err = fmt.Errorf("Expand(%s): %w", l.Name, err)
						return
					}
					kernels.names = append(kernels.names, l.Name+"/"+m.Name+"/"+be.Name())
					kernels.eks = append(kernels.eks, ek)
				}
			}
		}
	})
	if kernels.err != nil {
		t.Fatal(kernels.err)
	}
	out := make([]compiled, len(kernels.eks))
	for k, ek := range kernels.eks {
		prog, err := emit.Emit(ek)
		if err != nil {
			t.Fatalf("Emit(%s): %v", kernels.names[k], err)
		}
		out[k] = compiled{kernels.names[k], ek, prog}
	}
	return out
}

// engineTrips are the predicated trips the engine tests run: the whole
// fill squashed, the fill exactly, the MVE trip, one past it and one
// extra kernel pass.
func engineTrips(p *emit.Program) []int {
	return []int{1, p.Stages, p.Trip, p.Trip + 1, p.Trip + p.Period}
}

// TestEngineMatchesReference pins the ring-buffered engine, the shared
// machine image and the prefix-snapshotted sequential reference against
// the parent implementation kept in ref_test.go: every State and every
// Report must be deeply equal.
func TestEngineMatchesReference(t *testing.T) {
	pop := population(t)
	for _, c := range pop {
		sem, err := Bind(c.ek, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, got, want *State, gerr, werr error) {
			t.Helper()
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s %s: error %v, reference %v", c.name, what, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: state differs from the reference: trip %d/%d cyc %d/%d mem %v regs %v / %v", c.name, what, got.Trip, want.Trip, got.Cycles, want.Cycles, DiffStates("x", got, want, len(want.Mem)), got.RegFinal, want.RegFinal)
			}
		}
		got, gerr := RunProgram(sem, c.prog, ModeMVE, c.prog.Trip)
		want, werr := refRunProgram(sem, c.prog, ModeMVE, c.prog.Trip)
		check("mve", got, want, gerr, werr)
		for _, trip := range engineTrips(c.prog) {
			got, gerr := RunProgram(sem, c.prog, ModePredicated, trip)
			want, werr := refRunProgram(sem, c.prog, ModePredicated, trip)
			check("pred", got, want, gerr, werr)
			got, gerr = RunSequential(sem, trip)
			want, werr = refRunSequential(sem, trip)
			check("seq", got, want, gerr, werr)
		}
		for _, opts := range []Options{{}, {Seed: 7, PredTrips: engineTrips(c.prog)}} {
			got, gerr := VerifyProgram(c.ek, c.prog, opts)
			want, werr := refVerifyProgram(c.ek, c.prog, opts)
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s verify %+v: got %+v (%v), reference %+v (%v)", c.name, opts, got, gerr, want, werr)
			}
		}
	}
	t.Logf("%d compilations checked", len(pop))
}

// TestEngineMatchesReferenceOnMismatch: with one operand rewired the
// programs are wrong, and the engine must report the same mismatch
// lines as the reference — the no-difference fast path may not hide or
// reorder any.
func TestEngineMatchesReferenceOnMismatch(t *testing.T) {
	broken := 0
	for _, c := range population(t)[:40] {
		op := firstTwoSrcOp(c.prog)
		if op == nil || op.Srcs[0] == op.Srcs[1] {
			continue
		}
		op.Srcs[0] = op.Srcs[1]
		opts := Options{PredTrips: engineTrips(c.prog)}
		got, gerr := VerifyProgram(c.ek, c.prog, opts)
		want, werr := refVerifyProgram(c.ek, c.prog, opts)
		if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v (%v), reference %+v (%v)", c.name, got, gerr, want, werr)
		}
		if !got.OK() {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("no rewired program mismatched: the check compared nothing")
	}
}

func firstTwoSrcOp(p *emit.Program) *emit.Op {
	for bi := range p.Kernel {
		for oi := range p.Kernel[bi].Ops {
			if op := &p.Kernel[bi].Ops[oi]; len(op.Srcs) >= 2 && !op.Srcs[0].Frame && !op.Srcs[1].Frame {
				return op
			}
		}
	}
	return nil
}

// TestEngineMatchesReferenceOnStaleWrites: emitted programs never
// make a commit stale, so each program gets a late echo — its first
// kernel op with a register def also transfers its result to that def's
// own location one cycle after the op's next kernel-pass instance has
// written it. The echo was issued earlier than that write, so it is
// stale and must be dropped exactly as the reference drops it.
func TestEngineMatchesReferenceOnStaleWrites(t *testing.T) {
	for _, c := range population(t) {
		op := firstDefOp(c.prog)
		if op == nil {
			continue
		}
		op.Xfers = append(op.Xfers[:len(op.Xfers):len(op.Xfers)],
			emit.Xfer{Dst: op.Defs[0], Delay: c.prog.Period + op.Latency + 1})
		sem, err := Bind(c.ek, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, trip := range engineTrips(c.prog) {
			got, gerr := RunProgram(sem, c.prog, ModePredicated, trip)
			want, werr := refRunProgram(sem, c.prog, ModePredicated, trip)
			if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pred@%d: state differs from the reference (%v, %v)", c.name, trip, gerr, werr)
			}
		}
	}
}

// TestEngineMatchesReferenceOnLongDelays: each program gets one commit
// delayed past the end of every run — the first kernel op reading a
// live-in also transfers its result into that live-in's location. The
// live-in is never written otherwise and the echo lands only after the
// last issue, so it changes nothing the reference observes; landing any
// earlier (a ring too short for the largest delay) would feed the echo
// to the op's next instance.
func TestEngineMatchesReferenceOnLongDelays(t *testing.T) {
	echoed := 0
	for _, c := range population(t) {
		op, loc := firstLiveInRead(c.ek, c.prog)
		if op == nil {
			continue
		}
		echoed++
		_, passes := c.prog.PredWindow(c.prog.Trip + c.prog.Period)
		delay := max(passes*c.prog.Period, len(c.prog.Prologue)+c.prog.Passes*c.prog.Period+len(c.prog.Epilogue)) + 1
		op.Xfers = append(op.Xfers[:len(op.Xfers):len(op.Xfers)], emit.Xfer{Dst: loc, Delay: delay})
		sem, err := Bind(c.ek, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		got, gerr := RunProgram(sem, c.prog, ModeMVE, c.prog.Trip)
		want, werr := refRunProgram(sem, c.prog, ModeMVE, c.prog.Trip)
		if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s mve: state differs from the reference (%v, %v)", c.name, gerr, werr)
		}
		for _, trip := range engineTrips(c.prog) {
			got, gerr := RunProgram(sem, c.prog, ModePredicated, trip)
			want, werr := refRunProgram(sem, c.prog, ModePredicated, trip)
			if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pred@%d: state differs from the reference (%v, %v)", c.name, trip, gerr, werr)
			}
		}
	}
	if echoed == 0 {
		t.Fatal("no program reads a live-in: the check delayed nothing")
	}
}

// firstLiveInRead is the first kernel op of p that reads a register the
// loop never defines, and that operand's location.
func firstLiveInRead(ek *sched.ExpandedKernel, p *emit.Program) (*emit.Op, emit.Loc) {
	for bi := range p.Kernel {
		for oi := range p.Kernel[bi].Ops {
			op := &p.Kernel[bi].Ops[oi]
			for j, v := range p.Loop.Instrs[op.ID].Uses {
				if _, defined := ek.Copies[v]; !defined {
					return op, op.Srcs[j]
				}
			}
		}
	}
	return nil, emit.Loc{}
}

func firstDefOp(p *emit.Program) *emit.Op {
	for bi := range p.Kernel {
		for oi := range p.Kernel[bi].Ops {
			if op := &p.Kernel[bi].Ops[oi]; len(op.Defs) > 0 {
				return op
			}
		}
	}
	return nil
}

// TestCommitOrder checks the invariant that lets writeback skip a sort:
// before every cycle's writeback, the slot being drained lists its
// register commits in increasing issue cycle with strictly increasing
// seq.
func TestCommitOrder(t *testing.T) {
	for _, c := range population(t) {
		sem, err := Bind(c.ek, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRunner(sem, c.prog)
		if err != nil {
			t.Fatal(err)
		}
		plans := []struct {
			mode Mode
			trip int
		}{{ModeMVE, c.prog.Trip}, {ModePredicated, c.prog.Trip + c.prog.Period}}
		for _, p := range plans {
			if err := r.start(p.mode, p.trip); err != nil {
				t.Fatal(err)
			}
			for cyc := 0; cyc < r.span || r.inflight > 0; cyc++ {
				regs := r.ring[cyc%len(r.ring)].regs
				for k := 1; k < len(regs); k++ {
					if regs[k].issue < regs[k-1].issue || regs[k].seq <= regs[k-1].seq {
						t.Fatalf("%s %s cycle %d: commit %+v follows %+v", c.name, p.mode, cyc, regs[k], regs[k-1])
					}
				}
				if err := r.cycle(cyc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestVerifyAllocsIndependentOfCycles: a verification allocates its
// machine image up front; a longer predicated trip executes more cycles
// but allocates nothing more, and an extra trip costs at most its
// sequential reference snapshot.
func TestVerifyAllocsIndependentOfCycles(t *testing.T) {
	var l *ir.Loop
	for _, x := range ir.ExampleLoops() {
		if x.Name == "fir8" {
			l = x
		}
	}
	s, err := mirs.New().Schedule(&sched.Request{Loop: l, Machine: machine.Paper4Cluster()})
	if err != nil {
		t.Fatal(err)
	}
	ek, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := emit.Emit(ek)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(trips ...int) float64 {
		return testing.AllocsPerRun(5, func() {
			rep, err := VerifyProgram(ek, prog, Options{PredTrips: trips})
			if err != nil || !rep.OK() {
				t.Fatalf("verify %v: %v %v", trips, err, rep)
			}
		})
	}
	sem, err := Bind(ek, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	seq := newSeqRun(sem)
	seq.advance(prog.Trip)
	snapshot := testing.AllocsPerRun(5, func() { seq.snapshot() })

	base := allocs(prog.Stages)
	short := allocs(prog.Stages, 2*prog.Trip)
	long := allocs(prog.Stages, 8*prog.Trip)
	t.Logf("allocs: base %.0f, +2·trip %.0f, +8·trip %.0f, snapshot %.0f", base, short, long, snapshot)
	if long != short {
		t.Errorf("allocations grow with executed cycles: %.0f at trip %d, %.0f at trip %d", short, 2*prog.Trip, long, 8*prog.Trip)
	}
	if long-base > snapshot {
		t.Errorf("an extra trip costs %.0f allocations, more than one reference snapshot (%.0f)", long-base, snapshot)
	}
}
