package regpress

import (
	"math/rand/v2"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

func TestTrackerFolding(t *testing.T) {
	m := machine.Paper4Cluster()
	tr, err := NewTracker(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.II() != 4 {
		t.Errorf("II = %d, want 4", tr.II())
	}
	// A lifetime spanning 6 flat cycles at II=4 overlaps itself: cycles
	// 2..7 cover kernel cycles {2,3,0,1,2,3} -> two copies live at 2,3.
	tr.Add(1, 2, 7)
	want := map[int]int{0: 1, 1: 1, 2: 2, 3: 2}
	for c, n := range want {
		if got := tr.PressureAt(1, c); got != n {
			t.Errorf("PressureAt(1, %d) = %d, want %d", c, got, n)
		}
	}
	if got := tr.MaxLive(1); got != 2 {
		t.Errorf("MaxLive = %d, want 2", got)
	}
	if got := tr.PressureAt(0, 2); got != 0 {
		t.Errorf("cluster 0 charged %d, want 0", got)
	}
	// Remove restores the empty account exactly.
	tr.Remove(1, 2, 7)
	for c := 0; c < 4; c++ {
		if got := tr.PressureAt(1, c); got != 0 {
			t.Errorf("after Remove: PressureAt(1, %d) = %d, want 0", c, got)
		}
	}
	// A degenerate interval (end < start) charges nothing.
	tr.Add(0, 3, 2)
	if got := tr.MaxLive(0); got != 0 {
		t.Errorf("empty interval charged %d", got)
	}
	if _, err := NewTracker(m, 0); err == nil {
		t.Error("NewTracker accepted II = 0")
	}
}

func TestTrackerFitsAndExcess(t *testing.T) {
	m := machine.Tight()
	tr, err := NewTracker(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.FitsAll() {
		t.Error("empty tracker does not fit")
	}
	for i := 0; i < machine.TightRegs; i++ {
		tr.Add(0, 0, 1)
	}
	if !tr.Fits(0) || tr.Excess(0) != 0 {
		t.Errorf("exactly full file: Fits=%v Excess=%d", tr.Fits(0), tr.Excess(0))
	}
	tr.Add(0, 0, 0)
	if tr.Fits(0) || tr.Excess(0) != 1 {
		t.Errorf("overflow by one: Fits=%v Excess=%d", tr.Fits(0), tr.Excess(0))
	}
	if !tr.Fits(1) || tr.FitsAll() {
		t.Errorf("cluster 1 untouched: Fits=%v FitsAll=%v", tr.Fits(1), tr.FitsAll())
	}
}

// TestTrackerMatchesAnalyze rebuilds a real schedule's pressure profile
// through the incremental interface and demands exact agreement with the
// authoritative Analyze — the property the MIRS placement loop relies on.
func TestTrackerMatchesAnalyze(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster()} {
		for _, l := range ir.ExampleLoops() {
			s, err := (sched.ListScheduler{}).Schedule(&sched.Request{Loop: l, Machine: m})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			press, err := Analyze(s)
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			tr, err := NewTracker(m, s.II)
			if err != nil {
				t.Fatal(err)
			}
			for _, lt := range press.Lifetimes {
				tr.Add(lt.Cluster, lt.Start, lt.End)
			}
			for ci := range m.Clusters {
				if got, want := tr.MaxLive(ci), press.MaxLivePerCluster[ci]; got != want {
					t.Errorf("%s on %s cluster %d: tracker MaxLive %d, Analyze %d", l.Name, m.Name, ci, got, want)
				}
				for c := 0; c < s.II; c++ {
					if got, want := tr.PressureAt(ci, c), press.PerCluster[ci][c]; got != want {
						t.Errorf("%s on %s cluster %d cycle %d: tracker %d, Analyze %d", l.Name, m.Name, ci, c, got, want)
					}
				}
			}
			if tr.FitsAll() != press.Fits() {
				t.Errorf("%s on %s: tracker FitsAll %v, Analyze Fits %v", l.Name, m.Name, tr.FitsAll(), press.Fits())
			}
		}
	}
}

// TestTrackerMaxIndexMatchesScan drives random interleavings of Add and
// Remove — intervals shorter and longer than II, so both the partial and
// the full-wrap paths move counts — across Resets to other IIs, and
// after every update holds the O(1) MaxLive/Excess/Fits to an O(II) scan
// of the per-cycle counts.
func TestTrackerMaxIndexMatchesScan(t *testing.T) {
	m := machine.Tight()
	rng := rand.New(rand.NewPCG(7, 11))
	tr, err := NewTracker(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	type iv struct{ cluster, start, end int }
	var live []iv
	for round, ii := range []int{5, 1, 13, 3, 40} {
		tr.Reset(ii)
		live = live[:0]
		for step := 0; step < 3000; step++ {
			if len(live) > 0 && rng.IntN(5) < 2 {
				k := rng.IntN(len(live))
				v := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				tr.Remove(v.cluster, v.start, v.end)
			} else {
				v := iv{rng.IntN(m.NumClusters()), rng.IntN(50), 0}
				v.end = v.start + rng.IntN(3*ii+2) - 1 // end < start: an empty interval
				live = append(live, v)
				tr.Add(v.cluster, v.start, v.end)
			}
			for ci := range m.Clusters {
				want := 0
				for c := 0; c < ii; c++ {
					want = max(want, tr.PressureAt(ci, c))
				}
				over := max(want-m.Clusters[ci].RegFile.Size, 0)
				if got := tr.MaxLive(ci); got != want {
					t.Fatalf("round %d step %d: MaxLive(%d) = %d, scan %d", round, step, ci, got, want)
				}
				if tr.Excess(ci) != over || tr.Fits(ci) != (over == 0) {
					t.Fatalf("round %d step %d: Excess(%d) = %d Fits = %v, scan excess %d", round, step, ci, tr.Excess(ci), tr.Fits(ci), over)
				}
			}
		}
	}
}
