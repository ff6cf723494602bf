package search

import (
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// corpusSize returns the differential corpus size: the full 200-loop
// population CI pins, trimmed under -short for the edit loop.
func corpusSize() int {
	if testing.Short() {
		return 60
	}
	return 200
}

func schedulesEqual(t *testing.T, label string, a, b *sched.Schedule) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one schedule nil (seq=%v par=%v)", label, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if a.II != b.II || a.By != b.By {
		t.Fatalf("%s: II/By diverge: seq II=%d by=%q, par II=%d by=%q", label, a.II, a.By, b.II, b.By)
	}
	if len(a.Placements) != len(b.Placements) {
		t.Fatalf("%s: placement count diverges: %d vs %d", label, len(a.Placements), len(b.Placements))
	}
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			t.Fatalf("%s: placement %d diverges: %+v vs %+v", label, i, a.Placements[i], b.Placements[i])
		}
	}
	if len(a.Stats) != len(b.Stats) {
		t.Fatalf("%s: stats diverge: %v vs %v", label, a.Stats, b.Stats)
	}
	for k, v := range a.Stats {
		if b.Stats[k] != v {
			t.Fatalf("%s: stat %q diverges: %d vs %d", label, k, v, b.Stats[k])
		}
	}
}

func tracesEqual(t *testing.T, label string, a, b *trace.Buffer) {
	t.Helper()
	ae, be := a.Events(), b.Events()
	if len(ae) != len(be) {
		t.Fatalf("%s: trace length diverges: %d vs %d events", label, len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: trace event %d diverges:\nseq %+v\npar %+v", label, i, ae[i], be[i])
		}
	}
}

// TestPortfolioDeterministic runs the stock portfolio twice over a
// corpus slice and pins the two passes bit-identical — completion order
// of the racing strategies must never reach the result — and checks the
// winner attribution stat is present and in range.
func TestPortfolioDeterministic(t *testing.T) {
	p := DefaultPortfolio()
	n := 40
	if testing.Short() {
		n = 12
	}
	loops := gen.Corpus(5, n)
	for _, m := range []*machine.Machine{machine.Unified(), machine.Tight()} {
		for _, l := range loops {
			var buf1, buf2 trace.Buffer
			s1, err1 := p.Schedule(&sched.Request{Loop: l, Machine: m, Recorder: &buf1})
			s2, err2 := p.Schedule(&sched.Request{Loop: l, Machine: m, Recorder: &buf2})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s/%s: error divergence: %v vs %v", l.Name, m.Name, err1, err2)
			}
			if err1 != nil {
				continue
			}
			schedulesEqual(t, l.Name+"/"+m.Name, s1, s2)
			tracesEqual(t, l.Name+"/"+m.Name, &buf1, &buf2)
			win, ok := s1.Stats["portfolio_winner"]
			if !ok || win < 0 || win >= len(p.Strategies()) {
				t.Fatalf("%s/%s: bad portfolio_winner %d (ok=%v)", l.Name, m.Name, win, ok)
			}
		}
	}
}

// TestPortfolioNeverWorseThanMirs pins the point of racing: the
// portfolio's winner is at least as good as the default MIRS strategy it
// contains, under the portfolio's own quality order.
func TestPortfolioNeverWorseThanMirs(t *testing.T) {
	p := DefaultPortfolio()
	m := machine.Tight()
	for _, l := range gen.Corpus(9, 24) {
		ps, perr := p.Schedule(&sched.Request{Loop: l, Machine: m})
		ms, merr := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m})
		if merr != nil {
			continue // portfolio may still win via another strategy
		}
		if perr != nil {
			t.Fatalf("%s: portfolio failed where mirs succeeded: %v", l.Name, perr)
		}
		pk, err := qualityOf(ps)
		if err != nil {
			t.Fatal(err)
		}
		mk, err := qualityOf(ms)
		if err != nil {
			t.Fatal(err)
		}
		if mk.better(pk) {
			t.Fatalf("%s: mirs result %+v beats portfolio winner %+v", l.Name, mk, pk)
		}
	}
}
