package core

import (
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// TestCompileExpandsEveryResult: the facade always attaches a validated
// expanded kernel, and the summary reports the unroll factor and
// post-expansion MaxLive.
func TestCompileExpandsEveryResult(t *testing.T) {
	for _, be := range Backends() {
		for _, m := range []*Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			for _, l := range ir.ExampleLoops() {
				r, err := compile(be, l, m)
				if err != nil {
					continue // the baseline may fail on the tight machine; covered elsewhere
				}
				if r.Expanded == nil {
					t.Fatalf("%s/%s/%s: Result.Expanded missing", be.Name(), m.Name, l.Name)
				}
				if err := r.Expanded.Validate(); err != nil {
					t.Errorf("%s/%s/%s: expanded kernel invalid: %v", be.Name(), m.Name, l.Name, err)
				}
				// Renaming changes names, not liveness: the expanded
				// kernel's pressure fold must land exactly on the
				// steady-state MaxLive Analyze reports.
				if r.Expanded.MaxLive != r.Pressure.MaxLive {
					t.Errorf("%s/%s/%s: post-expansion MaxLive %d != steady-state %d",
						be.Name(), m.Name, l.Name, r.Expanded.MaxLive, r.Pressure.MaxLive)
				}
				if s := r.Summary(); !strings.Contains(s, "unroll=") || !strings.Contains(s, "xMaxLive=") {
					t.Errorf("Summary = %q, want unroll and post-expansion MaxLive", s)
				}
			}
		}
	}
}

// TestMVEOnHighPressureLoops is the modulo-variable-expansion acceptance
// criterion: on fir8 and hydro on the unified machine, scheduling
// against a renaming-relaxed dependence graph yields a validated
// expanded kernel whose unroll factor exceeds 1 — some value provably
// outlives its own register's redefinition in the unexpanded frame
// (lifetime > II), and the expansion absorbs that overlap into renamed
// copies, so the wrap-around redefinition constraint is absent from the
// expanded form (ExpandedKernel.Validate's per-copy definition-event
// scan passes). The relaxed II must never exceed the strict one: the
// penalty was a modelling artifact, not a resource.
func TestMVEOnHighPressureLoops(t *testing.T) {
	m := machine.Unified()
	for _, l := range []*ir.Loop{ir.FIR8(), ir.Hydro()} {
		t.Run(l.Name, func(t *testing.T) {
			strict, err := compile(mirs.New(), l, m)
			if err != nil {
				t.Fatalf("strict compile: %v", err)
			}
			relaxed, err := ir.Build(l, m, &ir.BuildOptions{OutputLatency: 1, RenameCopies: 3})
			if err != nil {
				t.Fatal(err)
			}
			out, err := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m, Graph: relaxed})
			if err != nil {
				t.Fatalf("relaxed schedule: %v", err)
			}
			ek, err := out.Expand()
			if err != nil {
				t.Fatalf("Expand: %v", err)
			}
			if out.II > strict.Schedule.II {
				t.Errorf("relaxed II=%d worse than strict II=%d", out.II, strict.Schedule.II)
			}
			if ek.Unroll <= 1 {
				t.Fatalf("unroll = %d, want > 1 (no lifetime outlived its II window)", ek.Unroll)
			}
			// The unexpanded wrap-around constraint is genuinely broken
			// here: some register's lifetime exceeds II...
			overlap := false
			for _, c := range ek.Copies {
				if c > 1 {
					overlap = true
				}
			}
			if !overlap {
				t.Fatal("unroll > 1 but no register needs more than one copy")
			}
			// ...and the expanded form is free of it.
			if err := ek.Validate(); err != nil {
				t.Errorf("expanded kernel invalid: %v", err)
			}
		})
	}
}

// TestMVERemovesRecurrencePenalty pins the II win end to end through
// real machine configs: LongChain is recurrence-bound at II=3 by the
// wrap-around anti edges alone, and MIRS against the relaxed graph
// reaches the resource bound II=1 by unrolling the kernel.
func TestMVERemovesRecurrencePenalty(t *testing.T) {
	m := machine.Unified()
	l := ir.LongChain()
	strict, err := compile(mirs.New(), l, m)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Schedule.II != 3 {
		t.Fatalf("strict II = %d, want 3 (wrap-around recurrence)", strict.Schedule.II)
	}
	relaxed, err := ir.Build(l, m, &ir.BuildOptions{OutputLatency: 1, RenameCopies: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m, Graph: relaxed})
	if err != nil {
		t.Fatal(err)
	}
	if out.II != 1 {
		t.Errorf("relaxed II = %d, want the resource bound 1", out.II)
	}
	ek, err := out.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if ek.Unroll < 2 {
		t.Errorf("unroll = %d, want >= 2: the II was bought with kernel size", ek.Unroll)
	}
}
