package sched

import (
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// This file defines the II-search contract every backend shares: a
// backend's search split into a deterministic state machine (Sweep) and
// a per-candidate attempt function (Attempter), plus the one driver
// (Drive) that runs any such pair in candidate order. Every backend's
// Schedule is Drive over its own Probe, so the escalation loop —
// cancellation polling, error handling, the order results are folded
// back — exists once instead of once per backend.

// Attempt is the outcome of scheduling one candidate (one candidate II,
// or one phase-encoded candidate key — see Sweep). It is a pure
// function of (request, candidate): two attempts of the same candidate
// return equivalent results and emit identical trace events.
type Attempt struct {
	// Schedule is the complete, Validate-clean schedule the attempt
	// produced, or nil when the candidate yielded none. A backend that
	// degrades gracefully (MIRS) may return a complete schedule whose
	// register pressure still overflows; Excess reports the residue.
	Schedule *Schedule
	// Completed reports whether a full placement was reached at this
	// candidate, pressure aside — the signal MIRS uses to attribute II
	// increases to spilling rather than to resources.
	Completed bool
	// Excess is the summed per-cluster register overflow of Schedule;
	// zero when every file fits.
	Excess int
	// Err is the attempt's failure: invalid input, an internal
	// validation error, or the request's cancellation. An error ends
	// the search with it.
	Err error
}

// Sweep is one II search as a deterministic state machine. Candidates
// are integer keys, strictly increasing in the order Next returns them;
// a key encodes whatever the backend escalates over (for the list
// scheduler the single-cluster fallback phase rides in the key's upper
// range). The contract Drive relies on:
//
//   - Next/Consume alternate: every candidate Next returns is consumed
//     exactly once, in order, before Next is called again. The sweep
//     never sees a failed attempt — Drive returns an attempt's Err
//     itself.
//   - After Consume of a successful attempt (or the final candidate),
//     Next reports done and Result returns the search's outcome.
//
// Sweeps embed a Cursor for Next. They are not safe for concurrent use.
type Sweep interface {
	// Next returns the next candidate to attempt, or done=true when the
	// search is decided (success or candidates exhausted).
	Next() (cand int, done bool)
	// Consume folds the (error-free) attempt of cand — the candidate
	// the last Next returned — into the search state.
	Consume(cand int, a Attempt)
	// Result returns the finished search's schedule or error. Only
	// valid once Next has reported done.
	Result() (*Schedule, error)
}

// Cursor is the candidate position every sweep shares. Consume advances
// Cand (usually by one) and sets Done once the search is decided.
type Cursor struct {
	// Cand is the next candidate key to attempt.
	Cand int
	// Max is the last candidate key of the search.
	Max int
	// Done reports that the search is decided.
	Done bool
}

// Next implements Sweep.
func (c *Cursor) Next() (int, bool) {
	if c.Done || c.Cand > c.Max {
		return 0, true
	}
	return c.Cand, false
}

// Attempter runs single-candidate attempts. It owns its mutable
// scheduler state (reservation table, pressure tracker, scratch pools),
// reset per attempt, and reads the per-request analyses behind it
// (graph, MII, heights) without mutating them. It is confined to one
// goroutine at a time.
type Attempter interface {
	// AttemptII schedules candidate cand from a fresh per-candidate
	// state. rec, when non-nil, receives the attempt's trace events.
	// Long backtracking fights poll Request.Cancelled inside the
	// attempt, so a cancelled request stops mid-attempt with an
	// Attempt whose Err wraps the context error.
	AttemptII(cand int, rec trace.Recorder) Attempt
}

// Prober is a Scheduler whose II search can be driven candidate by
// candidate — the hook Drive runs through.
//
// Sharing contract: Probe performs the per-request analyses once (graph
// construction, MII, heights, priority orders) and the sweep and the
// attempter share them strictly read-only. All mutable state — MRTs,
// pressure trackers, window caches, placement buffers, spill-augmented
// loop clones — is owned by the attempter, and one Prober value may
// serve concurrent Probe calls (driver workers and serve leaders share
// one backend instance).
type Prober interface {
	Scheduler
	// Probe starts one search: the sweep and its attempter, or an error
	// for invalid input.
	Probe(req *Request) (Sweep, Attempter, error)
}

// Drive runs p's II search for req strictly in candidate order — the
// search every backend's Schedule is. Between candidates it polls
// req.Cancelled: one attempt is bounded work (the backends cap
// backtracking and poll inside it too), so a timed-out compilation
// stops promptly while an uncancellable one pays nothing.
func Drive(req *Request, p Prober) (*Schedule, error) {
	sw, at, err := p.Probe(req)
	if err != nil {
		return nil, err
	}
	for {
		cand, done := sw.Next()
		if done {
			return sw.Result()
		}
		if err := req.Cancelled(); err != nil {
			return nil, err
		}
		a := at.AttemptII(cand, req.Recorder)
		if a.Err != nil {
			return nil, a.Err
		}
		sw.Consume(cand, a)
	}
}

// Prepare validates req and returns what every II search starts from:
// the dependence graph (Request.Graph, or built with ir.Build's
// defaults), the MII (Request.MII, or computed) and the last candidate
// II. That is Request.MaxII when set — honoured as stated, even below
// MII, where the search then fails — and otherwise the safe horizon:
// flat start cycles are bounded by the sum of all effective latencies
// plus one resource stall per instruction, and any II past that bound
// satisfies every loop-carried edge, so the search always terminates.
// widen, when non-nil, maps that horizon to the backend's own (MIRS
// doubles it, because spill code grows the loop); the result is never
// below MII.
func (r *Request) Prepare(widen func(horizon int) int) (*ir.Graph, MII, int, error) {
	if r == nil || r.Loop == nil || r.Machine == nil {
		return nil, MII{}, 0, fmt.Errorf("sched: request missing loop or machine")
	}
	g := r.Graph
	if g == nil {
		var err error
		if g, err = ir.Build(r.Loop, r.Machine, nil); err != nil {
			return nil, MII{}, 0, err
		}
	}
	var mii MII
	if r.MII != nil {
		mii = *r.MII
	} else {
		var err error
		if mii, err = ComputeMII(g, r.Machine); err != nil {
			return nil, MII{}, 0, err
		}
	}
	if r.MaxII > 0 {
		return g, mii, r.MaxII, nil
	}
	h := 1
	bus := r.Machine.BusLatency()
	for _, in := range r.Loop.Instrs {
		h += r.Machine.Latency(in.Class) + bus + 1
	}
	if widen != nil {
		h = widen(h)
	}
	return g, mii, max(h, mii.MII), nil
}
