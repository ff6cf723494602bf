package core

import (
	"context"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// compile is CompileSafeWith with a background context and default Opts.
func compile(s sched.Scheduler, l *ir.Loop, m *machine.Machine) (*Result, error) {
	return CompileSafeWith(context.Background(), s, l, m, Opts{})
}

func TestCompileAllExamplesOnBothMachines(t *testing.T) {
	for _, m := range []*Machine{machine.Unified(), machine.Paper4Cluster()} {
		for _, l := range ir.ExampleLoops() {
			t.Run(m.Name+"/"+l.Name, func(t *testing.T) {
				r, err := compile(sched.ListScheduler{}, l, m)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				if err := r.Schedule.Validate(); err != nil {
					t.Errorf("schedule invalid: %v", err)
				}
				if r.Schedule.II < r.MII.MII {
					t.Errorf("II = %d below MII = %d", r.Schedule.II, r.MII.MII)
				}
				if r.Pressure.MaxLive < 1 {
					t.Errorf("MaxLive = %d", r.Pressure.MaxLive)
				}
				if s := r.Summary(); !strings.Contains(s, l.Name) || !strings.Contains(s, "II=") {
					t.Errorf("Summary = %q", s)
				}
			})
		}
	}
}

// failingScheduler returns an intentionally broken schedule to prove
// CompileSafeWith re-validates backend output.
type failingScheduler struct{}

func (failingScheduler) Name() string { return "broken" }

func (failingScheduler) Schedule(req *sched.Request) (*sched.Schedule, error) {
	g, err := ir.Build(req.Loop, req.Machine, nil)
	if err != nil {
		return nil, err
	}
	// All instructions at cycle 0, slot 0, cluster 0: resource chaos.
	return &sched.Schedule{
		Loop:       req.Loop,
		Machine:    req.Machine,
		Graph:      g,
		II:         1,
		Placements: make([]sched.Placement, req.Loop.NumInstrs()),
		By:         "broken",
	}, nil
}

func TestCompileWithRejectsInvalidBackendOutput(t *testing.T) {
	_, err := compile(failingScheduler{}, ir.DotProduct(), machine.Unified())
	if err == nil || !strings.Contains(err.Error(), "invalid schedule") {
		t.Errorf("want invalid-schedule error, got %v", err)
	}
}

// TestCompileNilInputs: a nil scheduler, loop or machine is an ordinary
// error, returned before compiling — never a panic, recovered or not.
func TestCompileNilInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    sched.Scheduler
		l    *ir.Loop
		m    *machine.Machine
		want string
	}{
		{"nil-loop", mirs.New(), nil, machine.Unified(), "core: nil loop"},
		{"nil-machine", mirs.New(), ir.DotProduct(), nil, "core: nil machine"},
		{"nil-scheduler", nil, ir.DotProduct(), machine.Unified(), "core: nil scheduler"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := CompileSafeWith(context.Background(), tc.s, tc.l, tc.m, Opts{})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("got (%v, %v), want error %q", r, err, tc.want)
			}
		})
	}
}

// TestBackendsRunFullCorpus: every registered backend compiles the whole
// corpus on every canned machine through the facade — the contract the
// Backends registry exists for. On the register-starved machine the MIRS
// backend must additionally fit every register file.
func TestBackendsRunFullCorpus(t *testing.T) {
	if len(Backends()) < 2 {
		t.Fatalf("Backends() = %d entries, want the baseline and mirs", len(Backends()))
	}
	for _, be := range Backends() {
		for _, m := range []*Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
			for _, l := range ir.ExampleLoops() {
				t.Run(be.Name()+"/"+m.Name+"/"+l.Name, func(t *testing.T) {
					r, err := compile(be, l, m)
					if err != nil {
						if be.Name() == "mirs" {
							t.Fatalf("compile: %v", err)
						}
						t.Skipf("baseline cannot schedule: %v", err)
					}
					if be.Name() == "mirs" && !r.Pressure.Fits() {
						t.Errorf("mirs pressure %v exceeds register files of %s", r.Pressure.MaxLivePerCluster, m.Name)
					}
					if s := r.Summary(); !strings.Contains(s, "by "+be.Name()) {
						t.Errorf("Summary = %q, want backend name", s)
					}
				})
			}
		}
	}
}

func TestCompileRejectsUnschedulableLoop(t *testing.T) {
	l := &ir.Loop{Name: "fp", Instrs: []*ir.Instruction{
		{ID: 0, Op: "sqrt", Class: machine.OpClass("fpu"), Defs: []ir.VReg{0}},
	}}
	if _, err := compile(sched.ListScheduler{}, l, machine.Unified()); err == nil {
		t.Error("compile accepted a loop with an unsupported op class")
	}
}
