package gen

import (
	"context"
	"errors"
	"testing"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// FuzzGenerate fuzzes the generator's validity contract over the raw
// knob space: whatever (seed, knobs) the fuzzer invents — normalization
// clamps them — the generated loop must validate, build an acyclic DDG,
// yield a terminating MII, and compile Validate-clean through every
// registered backend on the reference machines. The seed corpus under
// testdata/fuzz covers each knob corner; run longer with
//
//	go test -fuzz FuzzGenerate ./pkg/gen/
func FuzzGenerate(f *testing.F) {
	for i, k := range Corners() {
		f.Add(uint64(i)*1337+1, k.Ops, k.MemRatio, k.StoreRatio, k.MulRatio,
			k.RecurrenceDensity, k.MaxRecurrenceDepth, k.PressureBias, k.MultiDefRatio)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops int, memR, storeR, mulR, recD float64, depth int, bias, multi float64) {
		// Bound the body so one fuzz iteration stays cheap; shape knobs
		// pass through raw — normalization owns their sanity.
		if ops > 48 {
			ops = 48
		}
		k := Knobs{
			Tag: "fuzz", Ops: ops, MemRatio: memR, StoreRatio: storeR, MulRatio: mulR,
			RecurrenceDensity: recD, MaxRecurrenceDepth: depth, PressureBias: bias, MultiDefRatio: multi,
		}
		l := Generate(seed, k)
		if err := l.Validate(); err != nil {
			t.Fatalf("invalid loop: %v", err)
		}
		for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster()} {
			g, err := ir.Build(l, m, nil)
			if err != nil {
				t.Fatalf("build on %s: %v", m.Name, err)
			}
			if _, err := g.IntraTopoOrder(); err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			mii, err := sched.ComputeMII(g, m)
			if err != nil {
				t.Fatalf("mii on %s: %v", m.Name, err)
			}
			for _, be := range core.Backends() {
				r, err := core.CompileSafeWith(context.Background(), be, l, m, core.Opts{})
				if err != nil {
					// The one declared failure: a kernel whose rotating
					// copies have no tractable unroll. Bounded and clean
					// (no hang, no panic, no invalid schedule) is the
					// contract; the curated Corners() stay below the
					// bound and are tested strictly elsewhere. Only this
					// backend×machine cell is excused — the rest of the
					// grid must still hold for the same loop.
					if errors.Is(err, sched.ErrUnrollBound) {
						continue
					}
					t.Fatalf("%s on %s: %v", be.Name(), m.Name, err)
				}
				if r.Schedule.II < mii.MII {
					t.Fatalf("%s on %s: II %d below MII %d", be.Name(), m.Name, r.Schedule.II, mii.MII)
				}
			}
		}
	})
}
