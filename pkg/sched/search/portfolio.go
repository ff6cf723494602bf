// Package search races heterogeneous scheduling strategies for one loop
// and keeps the best result by a deterministic quality order (Portfolio).
// Each strategy runs its own backend's sequential II search
// (sched.Drive) on a private request clone, so the race only changes
// wall-clock time, never which schedule wins.
package search

import (
	"errors"
	"sync"

	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// Strategy is one competitor in a Portfolio: a named scheduler
// configuration. The name is for attribution (reports, traces); the
// winner is recorded in Schedule.Stats["portfolio_winner"] by index, so
// strategy order is part of the deterministic contract — reordering a
// portfolio changes artifacts the way changing an option does.
type Strategy struct {
	// Name labels the strategy in reports.
	Name string
	// Scheduler is the configured backend the strategy runs.
	Scheduler sched.Scheduler
}

// Portfolio races heterogeneous scheduling strategies for one loop and
// keeps the best result by a deterministic quality order. All strategies
// run to completion — each on a private Request clone with a private
// trace buffer — and the winner is a pure function of their results:
//
//  1. least residual register overflow (a schedule that fits beats any
//     that does not, per regpress.Analyze against the machine's files),
//  2. lowest II,
//  3. lowest peak MaxLive across clusters,
//  4. least spill traffic (spill_stores + spill_loads),
//  5. lowest strategy index.
//
// Completion order never matters, so artifacts stay byte-identical run
// to run. When every strategy fails, the error of the lowest-index
// strategy is returned.
type Portfolio struct {
	strategies []Strategy
}

// NewPortfolio builds a Portfolio over the given strategies, raced in
// the given (deterministic) order.
func NewPortfolio(strategies ...Strategy) *Portfolio {
	return &Portfolio{strategies: append([]Strategy(nil), strategies...)}
}

// DefaultPortfolio is the stock strategy mix: the list baseline (wins
// only when it matches MIRS's II without spill traffic, which it does on
// easy loops at a fraction of the cost), default MIRS, and MIRS
// preferring fewest-uses spill victims (less reload traffic under
// pressure).
func DefaultPortfolio() *Portfolio {
	return NewPortfolio(
		Strategy{Name: "list", Scheduler: sched.ListScheduler{}},
		Strategy{Name: "mirs", Scheduler: mirs.New()},
		Strategy{Name: "mirs-fewest-uses", Scheduler: mirs.New(mirs.WithVictimPolicy(mirs.VictimFewestUses))},
	)
}

// Strategies returns the raced strategies in order.
func (p *Portfolio) Strategies() []Strategy { return p.strategies }

// Name returns "portfolio".
func (p *Portfolio) Name() string { return "portfolio" }

// Schedule implements sched.Scheduler: race every strategy, keep the
// deterministic best. The winning schedule's By and Stats are the
// winning backend's, plus Stats["portfolio_winner"] = strategy index;
// the winner's trace events are replayed into the request's recorder so
// exports carry exactly one search narrative.
func (p *Portfolio) Schedule(req *sched.Request) (*sched.Schedule, error) {
	if len(p.strategies) == 0 {
		return nil, errNoStrategies
	}
	type res struct {
		s   *sched.Schedule
		err error
		buf *trace.Buffer
	}
	results := make([]res, len(p.strategies))
	var wg sync.WaitGroup
	for i := range p.strategies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Private request clone: the loop, machine, graph and MII are
			// shared read-only (schedulers never mutate their input — MIRS
			// clones before spilling), but the recorder is per-strategy so
			// concurrent searches never interleave events.
			sreq := *req
			sreq.Recorder = nil
			var buf *trace.Buffer
			if req.Recorder != nil {
				buf = &trace.Buffer{}
				sreq.Recorder = buf
			}
			s, err := p.strategies[i].Scheduler.Schedule(&sreq)
			results[i] = res{s: s, err: err, buf: buf}
		}(i)
	}
	wg.Wait()

	win := -1
	var winKey quality
	for i := range results {
		if results[i].err != nil || results[i].s == nil {
			continue
		}
		k, err := qualityOf(results[i].s)
		if err != nil {
			results[i] = res{err: err}
			continue
		}
		if win == -1 || k.better(winKey) {
			win, winKey = i, k
		}
	}
	if win == -1 {
		for i := range results {
			if results[i].err != nil {
				return nil, results[i].err
			}
		}
		return nil, errNoStrategies
	}
	if req.Recorder != nil && results[win].buf != nil {
		for _, e := range results[win].buf.Events() {
			req.Recorder.Emit(e)
		}
	}
	out := results[win].s
	out.AddStat("portfolio_winner", win)
	return out, nil
}

// quality is the deterministic comparison key of one strategy's result.
type quality struct {
	excess  int // summed register overflow vs the machine's files
	ii      int
	maxLive int // peak MaxLive across clusters
	spills  int // spill_stores + spill_loads
}

// better reports whether k beats o, lexicographically.
func (k quality) better(o quality) bool {
	if k.excess != o.excess {
		return k.excess < o.excess
	}
	if k.ii != o.ii {
		return k.ii < o.ii
	}
	if k.maxLive != o.maxLive {
		return k.maxLive < o.maxLive
	}
	return k.spills < o.spills
}

func qualityOf(s *sched.Schedule) (quality, error) {
	press, err := regpress.Analyze(s)
	if err != nil {
		return quality{}, err
	}
	k := quality{excess: press.Excess(), ii: s.II, spills: s.Stats["spill_stores"] + s.Stats["spill_loads"]}
	for _, ml := range press.MaxLivePerCluster {
		k.maxLive = max(k.maxLive, ml)
	}
	return k, nil
}

var errNoStrategies = errors.New("search: portfolio has no strategies")
