package mirs

import (
	"fmt"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/opt"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func schedule(t *testing.T, s sched.Scheduler, l *ir.Loop, m *machine.Machine) (*sched.Schedule, *regpress.Result) {
	t.Helper()
	out, err := s.Schedule(&sched.Request{Loop: l, Machine: m})
	if err != nil {
		t.Fatalf("%s: %s on %s: %v", s.Name(), l.Name, m.Name, err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("%s: %s on %s: invalid schedule: %v\n%s", s.Name(), l.Name, m.Name, err, out)
	}
	press, err := regpress.Analyze(out)
	if err != nil {
		t.Fatalf("%s: %s on %s: %v", s.Name(), l.Name, m.Name, err)
	}
	return out, press
}

// TestMIRSValidOnAllExamples: MIRS must produce a Validate-clean schedule
// at or above MII for every corpus loop on every canned machine,
// including the register-starved one.
func TestMIRSValidOnAllExamples(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range ir.ExampleLoops() {
			t.Run(m.Name+"/"+l.Name, func(t *testing.T) {
				g, err := ir.Build(l, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				mii, err := sched.ComputeMII(g, m)
				if err != nil {
					t.Fatal(err)
				}
				out, _ := schedule(t, New(), l, m)
				if out.II < mii.MII {
					t.Errorf("II = %d below MII = %d", out.II, mii.MII)
				}
				if out.By != "mirs" {
					t.Errorf("By = %q, want mirs", out.By)
				}
				if out.Stats == nil {
					t.Error("Stats missing")
				}
			})
		}
	}
}

// TestMIRSMatchesOrBeatsListII is the paper's headline comparison: on the
// unified and clustered reference machines (ample registers), MIRS's
// backtracking must never lose to the greedy baseline on II, for the
// whole corpus.
func TestMIRSMatchesOrBeatsListII(t *testing.T) {
	beats := 0
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster()} {
		for _, l := range ir.ExampleLoops() {
			ls, _ := schedule(t, sched.ListScheduler{}, l, m)
			ms, _ := schedule(t, New(), l, m)
			if ms.II > ls.II {
				t.Errorf("%s on %s: mirs II=%d worse than list II=%d", l.Name, m.Name, ms.II, ls.II)
			}
			if ms.II < ls.II {
				beats++
			}
		}
	}
	// The deep-chain loops are constructed so deadline windows win
	// somewhere; if MIRS never strictly beats the baseline the
	// backtracking machinery is dead weight.
	if beats == 0 {
		t.Error("mirs never beat the list scheduler's II on the reference machines")
	}
}

// TestMIRSSpillsWhereListOverflows is the integrated-spilling acceptance
// criterion: on the register-starved machine, every corpus loop the
// baseline fails on or schedules with overflowing MaxLive must come out
// of MIRS Validate-clean with pressure fitting every register file.
func TestMIRSSpillsWhereListOverflows(t *testing.T) {
	m := machine.Tight()
	overflowed := 0
	for _, l := range ir.ExampleLoops() {
		listOut, err := (sched.ListScheduler{}).Schedule(&sched.Request{Loop: l, Machine: m})
		listOver := false
		if err != nil {
			listOver = true
		} else if press, aerr := regpress.Analyze(listOut); aerr != nil || !press.Fits() {
			listOver = true
		}
		if !listOver {
			continue
		}
		overflowed++
		out, press := schedule(t, New(), l, m)
		if !press.Fits() {
			t.Errorf("%s on %s: mirs MaxLive %v exceeds register files (II=%d, stats=%v)",
				l.Name, m.Name, press.MaxLivePerCluster, out.II, out.Stats)
		}
	}
	// The high-pressure corpus additions exist to make the baseline
	// overflow here; if nothing overflows, spilling is not being
	// exercised and the corpus has regressed.
	if overflowed < 2 {
		t.Errorf("only %d corpus loops overflow under the baseline on %s; want >= 2", overflowed, m.Name)
	}
}

// TestMIRSReportsSpillTraffic pins the Stats contract: a run that fits
// only by spilling must report its store/reload traffic, and spill-free
// runs must report zeroes.
func TestMIRSReportsSpillTraffic(t *testing.T) {
	m := machine.Tight()
	spilled := false
	for _, l := range ir.ExampleLoops() {
		out, _ := schedule(t, New(), l, m)
		for _, key := range []string{"spill_stores", "spill_loads", "ejections", "ii_over_mii", "spill_ii_increase"} {
			if _, ok := out.Stats[key]; !ok {
				t.Errorf("%s: Stats[%q] missing", l.Name, key)
			}
		}
		if out.Stats["spill_loads"] > 0 {
			spilled = true
			// Spill code must actually be in the scheduled loop.
			reloads := 0
			for _, in := range out.Loop.Instrs {
				if in.Op == ir.OpSpillReload {
					reloads++
				}
			}
			if reloads != out.Stats["spill_loads"] {
				t.Errorf("%s: Stats reports %d reloads, loop has %d", l.Name, out.Stats["spill_loads"], reloads)
			}
		}
	}
	if !spilled {
		t.Error("no corpus loop spilled on the tight machine; integrated spilling untested")
	}
	out, _ := schedule(t, New(), ir.SingleInstruction(), machine.Unified())
	if out.Stats["spill_stores"] != 0 || out.Stats["spill_loads"] != 0 {
		t.Errorf("single-instruction loop reported spills: %v", out.Stats)
	}
}

// TestMIRSBacktracks pins the force-eject machinery: the deep-chain hydro
// loop on the unified machine is exactly the case a non-backtracking
// scheduler cannot schedule at MII (early loads are redefined before
// their last consumer reads them), so MIRS must both eject operations and
// land a strictly better II than the baseline.
func TestMIRSBacktracks(t *testing.T) {
	m := machine.Unified()
	l := ir.Hydro()
	ls, _ := schedule(t, sched.ListScheduler{}, l, m)
	ms, _ := schedule(t, New(), l, m)
	if ms.Stats["ejections"] == 0 {
		t.Error("hydro on unified scheduled without a single ejection; backtracking untested")
	}
	if ms.II >= ls.II {
		t.Errorf("mirs II=%d did not beat list II=%d on hydro/unified", ms.II, ls.II)
	}
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mii, err := sched.ComputeMII(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if ms.II != mii.MII {
		t.Errorf("mirs II=%d, want MII=%d on hydro/unified", ms.II, mii.MII)
	}
}

// TestMIRSOptions: a zero backtracking budget must degrade gracefully
// (no forced placements, II escalates instead) and still produce a valid
// schedule.
func TestMIRSOptions(t *testing.T) {
	m := machine.Unified()
	l := ir.Hydro()
	out, _ := schedule(t, New(WithMaxRetries(0)), l, m)
	if out.Stats["ejections"] != 0 {
		t.Errorf("MaxRetries=0 but %d ejections", out.Stats["ejections"])
	}
	strict, _ := schedule(t, New(), l, m)
	if out.II < strict.II {
		t.Errorf("budget-less run got II=%d, better than backtracking's %d", out.II, strict.II)
	}
	// WithMaxSpills(0) disables spilling entirely: any schedule that
	// comes back must be spill-free and valid (failing to schedule at all
	// is also acceptable on the register-starved machine).
	for _, l := range ir.ExampleLoops() {
		out2, err := New(WithMaxSpills(0)).Schedule(&sched.Request{Loop: l, Machine: machine.Tight()})
		if err != nil {
			continue
		}
		if verr := out2.Validate(); verr != nil {
			t.Errorf("%s: WithMaxSpills(0): invalid schedule: %v", l.Name, verr)
		}
		if out2.Stats["spill_stores"]+out2.Stats["spill_loads"] != 0 {
			t.Errorf("%s: WithMaxSpills(0) still spilled: %v", l.Name, out2.Stats)
		}
	}
}

// TestMIRSRespectsMaxII: every backend's II search must honour an
// explicit Request.MaxII exactly — the shared sched.Request.Prepare
// contract. A cap below MII fails; a cap at the uncapped II reproduces
// it; a cap one below either fails naming that cap or (MIRS's graceful
// degradation) returns a schedule within it — never one past it, which
// is what substituting the safe horizon would produce.
func TestMIRSRespectsMaxII(t *testing.T) {
	for _, be := range []sched.Scheduler{sched.ListScheduler{}, New(), opt.New()} {
		for _, c := range []struct {
			l *ir.Loop
			m *machine.Machine
		}{
			{ir.FIR8(), machine.Tight()},
			{ir.DotProduct(), machine.Unified()},
			{ir.Hydro(), machine.Paper4Cluster()},
		} {
			t.Run(be.Name()+"/"+c.l.Name+"/"+c.m.Name, func(t *testing.T) {
				g, err := ir.Build(c.l, c.m, nil)
				if err != nil {
					t.Fatal(err)
				}
				mii, err := sched.ComputeMII(g, c.m)
				if err != nil {
					t.Fatal(err)
				}
				capped := func(maxII int) (*sched.Schedule, error) {
					return be.Schedule(&sched.Request{Loop: c.l, Machine: c.m, MaxII: maxII})
				}
				if _, err := capped(mii.MII - 1); err == nil {
					t.Fatalf("MaxII=%d (below MII=%d) accepted; want an error", mii.MII-1, mii.MII)
				}
				free, err := capped(0)
				if err != nil {
					t.Fatal(err)
				}
				if s, err := capped(free.II); err != nil || s.II != free.II {
					t.Fatalf("MaxII=%d (the uncapped II): got %v, %v", free.II, s, err)
				}
				below := free.II - 1
				if below < mii.MII {
					return
				}
				s, err := capped(below)
				switch {
				case err != nil && !strings.Contains(err.Error(), fmt.Sprintf("II <= %d", below)):
					t.Fatalf("MaxII=%d: error does not name the cap: %v", below, err)
				case err == nil && s.II > below:
					t.Fatalf("MaxII=%d: returned II=%d past the cap", below, s.II)
				}
			})
		}
	}
}

// TestMIRSSpilledScheduleIsSelfConsistent: when MIRS spills, the returned
// Loop/Graph pair must be internally consistent — placements cover the
// augmented loop, the graph belongs to it, and spill memory edges hold
// under the schedule (Validate re-checked here against the returned
// graph, not the request's).
func TestMIRSSpilledScheduleIsSelfConsistent(t *testing.T) {
	m := machine.Tight()
	l := ir.Hydro()
	out, _ := schedule(t, New(), l, m)
	if out.Stats["spill_loads"] == 0 {
		t.Skip("hydro no longer spills on tight; adjust the corpus")
	}
	if out.Graph.Loop != out.Loop {
		t.Error("Schedule.Graph does not belong to Schedule.Loop")
	}
	if len(out.Placements) != out.Loop.NumInstrs() {
		t.Errorf("%d placements for %d instructions", len(out.Placements), out.Loop.NumInstrs())
	}
	if out.Loop.NumInstrs() <= l.NumInstrs() {
		t.Errorf("spilled loop has %d instructions, input had %d; expected growth", out.Loop.NumInstrs(), l.NumInstrs())
	}
	if err := out.Loop.Validate(); err != nil {
		t.Errorf("augmented loop invalid: %v", err)
	}
}

// TestMIRSSpillKeepsRenameCopies: a request graph built with
// RenameCopies > 1 must stay relaxed through every spill, so a returned
// spill-augmented graph carries the request's options.
func TestMIRSSpillKeepsRenameCopies(t *testing.T) {
	m := machine.Tight()
	spilled := 0
	for _, l := range ir.ExampleLoops() {
		g, err := ir.Build(l, m, &ir.BuildOptions{RenameCopies: 3})
		if err != nil {
			t.Fatal(err)
		}
		out, err := New().Schedule(&sched.Request{Loop: l, Machine: m, Graph: g})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
		if out.Stats["spill_loads"] == 0 {
			continue
		}
		spilled++
		if got := out.Graph.Options().RenameCopies; got != 3 {
			t.Errorf("%s: spilled graph has RenameCopies %d, want 3", l.Name, got)
		}
	}
	if spilled == 0 {
		t.Fatalf("no example loop spilled on %s, so no spill carried the options", m.Name)
	}
}
