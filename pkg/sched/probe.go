package sched

import (
	"context"
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// This file defines the II-search contract every backend shares: a
// backend's search split into a deterministic state machine (Sweep) and
// a pure per-candidate attempt function (Attempter), plus the one
// driver (Drive) that runs any such pair in order. The split is what
// lets pkg/sched/search probe several candidate IIs concurrently without
// changing a single output byte: the engine may *attempt* candidates in
// any order and in parallel, but results are fed back to the sweep
// strictly in the order the sweep asks for them, so the schedule (and
// its stats, and its trace) is a pure function of (loop, machine,
// options) — never of goroutine completion order. Every backend's
// Schedule is Drive over its own Probe, so "parallel output equals
// sequential output" holds by construction, not by a re-implementation
// kept in sync by hand.

// Attempt is the outcome of scheduling one candidate (one candidate II,
// or one phase-encoded candidate key — see Sweep). It must be a pure
// function of (request, candidate): two attempts of the same candidate
// return equivalent results and emit identical trace events, whichever
// goroutine runs them.
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
	// validation error, or a cancellation (the request's context or the
	// engine's per-probe context). An error ends the search with it.
	Err error
}

// Success reports whether the attempt ended the search: a clean
// schedule with no residual register overflow.
func (a Attempt) Success() bool {
	return a.Err == nil && a.Schedule != nil && a.Excess == 0
}

// Sweep is one II search as a deterministic state machine. Candidates
// are integer keys, strictly increasing in the order Next returns them
// and bounded by Last; a key encodes whatever the backend escalates
// over (for the list scheduler the single-cluster fallback phase rides
// in the key's upper range). The contract the drivers rely on:
//
//   - Next/Consume alternate: every candidate Next returns is consumed
//     exactly once, in order, before Next is called again. The sweep
//     never sees attempts for candidates it did not ask for, and never
//     sees a failed one — the driver returns an attempt's Err itself.
//   - The parallel engine speculates linearly, cand+1 … Last. A sweep
//     that jumps ahead (the MIRS stagnation step) only wastes the
//     skipped attempts, never changes an answer: the engine discards
//     results the sweep does not request.
//   - After Consume of a successful attempt (or the final candidate),
//     Next reports done and Result returns the search's outcome.
//
// Sweeps embed a Cursor for Next and Last. They are not safe for
// concurrent use; the drivers confine each sweep to one goroutine.
type Sweep interface {
	// Next returns the next candidate to attempt, or done=true when the
	// search is decided (success or candidates exhausted).
	Next() (cand int, done bool)
	// Last returns the largest candidate key the sweep may ask for.
	Last() int
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

// Last implements Sweep.
func (c *Cursor) Last() int { return c.Max }

// Attempter runs single-candidate attempts. Each Attempter owns its
// mutable scheduler state (reservation table, pressure tracker, scratch
// pools) and is confined to one goroutine at a time; the immutable
// analyses behind it (graph, MII, heights) are shared read-only with
// every attempter forked from it. See the "sharing contract" note on
// Prober.
type Attempter interface {
	// AttemptII schedules candidate cand from a fresh per-candidate
	// state. ctx, when non-nil, is the engine's per-probe cancellation
	// — distinct from Request.Ctx — polled inside long backtracking
	// fights so a probe made redundant by a lower II's success stops
	// promptly; a cancelled attempt returns an Attempt whose Err wraps
	// the context error. rec, when non-nil, receives the attempt's
	// trace events; the engine hands each attempt a private buffer and
	// replays the winning candidates' buffers into the caller's
	// recorder in consume order, which is how exports stay
	// byte-identical to a sequential run.
	AttemptII(ctx context.Context, cand int, rec trace.Recorder) Attempt
	// Fork returns an independent attempter that shares this one's
	// read-only analyses and none of its mutable state. Only the
	// parallel engine forks: once per extra worker, before any attempt
	// runs.
	Fork() Attempter
}

// Prober is a Scheduler whose II search can be driven candidate by
// candidate — the hook Drive and pkg/sched/search run through.
//
// Sharing contract: Probe performs the per-request analyses once (graph
// construction, MII, heights, priority orders) and the sweep plus every
// attempter forked from the returned one share them strictly
// read-only. All mutable state — MRTs, pressure trackers, window
// caches, placement buffers, spill-augmented loop clones — is owned by
// exactly one attempter, and each attempter by one goroutine.
type Prober interface {
	Scheduler
	// Probe starts one search: the sweep and its first attempter, or an
	// error for invalid input.
	Probe(req *Request) (Sweep, Attempter, error)
}

// Drive runs p's II search for req strictly in candidate order on the
// first attempter — the sequential search every backend's Schedule is,
// and the one pkg/sched/search reproduces speculatively. Between
// candidates it polls req.Cancelled: one attempt is bounded work (the
// backends cap backtracking and poll inside it too), so a timed-out
// compilation stops promptly while an uncancellable one pays nothing.
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
		a := at.AttemptII(nil, cand, req.Recorder)
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
