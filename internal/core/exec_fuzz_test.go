package core

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/vm"
)

// execAgreeOn closes the loop on one fuzzed loop: every backend's
// compilation, run through emission and both interpreter plans, must
// reproduce the sequential reference bit for bit. Unschedulable loops
// exercise nothing; structural failures (emission or interpretation
// refusing a kernel the scheduler validated) and semantic mismatches
// are both findings.
func execAgreeOn(t *testing.T, l *ir.Loop, m *machine.Machine) {
	t.Helper()
	for _, be := range Backends() {
		r, err := compile(be, l, m)
		if err != nil {
			continue
		}
		rep, err := vm.Verify(r.Expanded, vm.Options{Seed: ExecSeed(l.Name)})
		if err != nil {
			t.Errorf("%s on %s by %s: exec: %v\nloop: %v", l.Name, m.Name, be.Name(), err, l.Instrs)
			continue
		}
		if !rep.OK() {
			t.Errorf("%s on %s by %s: differential mismatch:\n%s\nloop: %v",
				l.Name, m.Name, be.Name(), rep.String(), l.Instrs)
		}
	}
}

// TestDifferentialExecSeeded is the deterministic (gating) half: the
// checked-in fuzz seeds, on the unified and register-starved machines.
func TestDifferentialExecSeeded(t *testing.T) {
	machines := []*machine.Machine{machine.Unified(), machine.Tight()}
	for _, seed := range fuzzSeeds {
		l := loopFromBytes(seed)
		if l == nil {
			t.Fatalf("seed %v decodes to no loop", seed)
		}
		for _, m := range machines {
			execAgreeOn(t, l, m)
		}
	}
}

// FuzzDifferentialExec explores the loop space beyond the seeds: decode
// bytes into a loop, compile it with every backend, and demand that the
// emitted VLIW code executes exactly like the sequential semantics. CI
// runs it as a non-gating 10-second smoke; counterexamples land in
// testdata/fuzz and gate forever after.
func FuzzDifferentialExec(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	machines := []*machine.Machine{machine.Unified(), machine.Tight()}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := loopFromBytes(data)
		if l == nil {
			t.Skip()
		}
		for _, m := range machines {
			execAgreeOn(t, l, m)
		}
	})
}
