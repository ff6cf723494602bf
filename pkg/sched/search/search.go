// Package search parallelises one compilation's II search without
// changing a single output byte.
//
// The backends expose their searches through sched.Prober: a
// deterministic state machine (sched.Sweep) plus a pure per-candidate
// attempt function (sched.Attempter). Run drives the sweep exactly the
// way sched.Drive does — candidates consumed strictly in the order the
// sweep asks for them — but *attempts* candidates speculatively on a
// pool of workers, each worker on its own attempter (the probe's first
// one, or a Fork of it) with its own trace buffer. Speculation is
// linear: after the candidate the sweep needs, the next ones up to the
// sweep's Last key. Because the sweep only ever sees attempts for the
// candidates it requested, in request order, and each attempt is a pure
// function of (request, candidate), the schedule, its stats, and its
// trace are identical to the sequential sweep's, whichever order the
// goroutines finish in. Speculation shows up only as wall-clock speedup
// and as wasted attempts — never as a different answer.
//
// When a speculative attempt *succeeds* at candidate k, the engine
// cancels the in-flight probes at candidates above k and stops
// speculating past it — probes at candidates below k keep running, so
// the result is still the minimal II the sequential sweep finds. The
// pruning is a heuristic, not a commitment: a sweep may legitimately
// skip k (the MIRS stagnation jump steps geometrically), and then the
// engine forgets the bound and relaunches whatever the sweep actually
// asks for.
//
// Portfolio (portfolio.go) layers a second axis on top: racing
// heterogeneous whole-strategies per loop and keeping the best by a
// deterministic quality order.
package search

import (
	"context"
	"sync"

	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// Stats counts the speculative work one Run performed. The counts are
// timing-dependent — how many probes launch and how many die cancelled
// depends on which goroutine finishes first — so they are returned out
// of band and must never be folded into deterministic artifacts
// (Schedule.Stats, report rows); surface them only through timing-mode
// reports and server counters.
type Stats struct {
	// Launched counts attempts handed to workers, including relaunches
	// of candidates whose first probe was cancelled.
	Launched int64
	// Cancelled counts attempts that died to per-probe cancellation
	// (a lower candidate's success, or engine shutdown) rather than
	// completing.
	Cancelled int64
}

// Add folds other into s, for aggregation across compilations.
func (s *Stats) Add(other Stats) {
	s.Launched += other.Launched
	s.Cancelled += other.Cancelled
}

// Run executes p's II search for req with up to probes concurrent
// speculative attempts and returns the schedule the sequential
// sched.Drive(req, p) would return, byte-identical — placements, stats
// and trace events included. probes <= 1 is sched.Drive itself, with
// zero goroutines and zero Stats.
func Run(req *sched.Request, p sched.Prober, probes int) (*sched.Schedule, Stats, error) {
	if probes <= 1 {
		s, err := sched.Drive(req, p)
		return s, Stats{}, err
	}
	sw, at, err := p.Probe(req)
	if err != nil {
		return nil, Stats{}, err
	}
	ln := newLauncher(req, sw, at, probes)
	// The defer covers panics out of run; the explicit call before
	// reading stats matters because shutdown still drains (and counts)
	// the probes the final success cancelled.
	defer ln.shutdown()
	s, err := ln.run()
	ln.shutdown()
	return s, ln.stats, err
}

// outcome is one finished attempt travelling from a worker back to the
// coordinator.
type outcome struct {
	cand int
	att  sched.Attempt
	buf  *trace.Buffer
	// aborted marks an attempt that died to its per-probe cancel (not
	// the request's own context): the engine forgets it ever ran so the
	// candidate can relaunch if the sweep turns out to need it.
	aborted bool
}

// launch is one in-flight speculative attempt.
type launch struct {
	cand   int
	ctx    context.Context
	cancel context.CancelFunc
	buf    *trace.Buffer
}

// launcher is the coordinator state for one Run: the worker pool, the
// in-flight and completed-but-unconsumed candidate sets, and the
// success-pruning bound. It is confined to the calling goroutine; only
// the work/results channels cross into workers.
type launcher struct {
	req    *sched.Request
	sw     sched.Sweep
	probes int
	// base is the request's context (Background when the request has
	// none): the parent every per-probe cancel derives from.
	base context.Context

	work    chan *launch
	results chan outcome
	wg      sync.WaitGroup

	issued   map[int]*launch // candidates attempted right now
	buffered map[int]outcome // completed attempts the sweep has not consumed yet
	// pruneAbove, when > 0, is the lowest candidate known to have
	// succeeded among buffered outcomes at or above the sweep's cursor:
	// no probe launches above it and in-flight probes above it are
	// cancelled. Cleared (and recomputed) if the sweep skips past it.
	pruneAbove int
	stats      Stats
	shut       bool
}

func newLauncher(req *sched.Request, sw sched.Sweep, first sched.Attempter, probes int) *launcher {
	l := &launcher{
		req:    req,
		sw:     sw,
		probes: probes,
		work:   make(chan *launch),
		// Buffered to the pool size so a worker can always deposit its
		// outcome and move on: the coordinator never holds more than
		// probes attempts in flight, so results never blocks a worker.
		results:  make(chan outcome, probes),
		issued:   make(map[int]*launch),
		buffered: make(map[int]outcome),
	}
	base := req.Ctx
	if base == nil {
		base = context.Background()
	}
	for i := 0; i < probes; i++ {
		// One attempter per worker: the pooled scheduler state is
		// mutable and single-goroutine by contract, and forks build it
		// lazily, so idle workers cost nothing. Forking here, before any
		// work is sent, orders every copy before the first attempt.
		at := first
		if i > 0 {
			at = first.Fork()
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for w := range l.work {
				att := at.AttemptII(w.ctx, w.cand, recOf(w.buf))
				// An error caused by the per-probe cancel (and not by
				// the request's own deadline) is the engine's doing:
				// mark the outcome aborted so the coordinator forgets
				// it. A completed attempt is usable even if its cancel
				// fired late.
				aborted := att.Err != nil && w.ctx.Err() != nil && base.Err() == nil
				w.cancel()
				l.results <- outcome{cand: w.cand, att: att, buf: w.buf, aborted: aborted}
			}
		}()
	}
	l.base = base
	return l
}

// run drives the sweep to completion, consuming candidates strictly in
// Next order while keeping up to probes speculative attempts in flight.
func (l *launcher) run() (*sched.Schedule, error) {
	for {
		cand, done := l.sw.Next()
		if done {
			return l.sw.Result()
		}
		// Same checkpoint sched.Drive polls between attempts, so a
		// cancelled request errors out at the same point in the
		// candidate order.
		if err := l.req.Cancelled(); err != nil {
			return nil, err
		}
		if l.pruneAbove > 0 && cand > l.pruneAbove {
			// The sweep skipped past the candidate we bet would end the
			// search (a stagnation jump): the bet is off. Re-derive the
			// bound from the successes still ahead of the cursor.
			l.reprune(cand)
		}
		if o, ok := l.buffered[cand]; ok {
			delete(l.buffered, cand)
			l.replay(o.buf)
			if o.att.Err != nil {
				return nil, o.att.Err
			}
			l.sw.Consume(cand, o.att)
			continue
		}
		l.fill(cand)
		l.handle(<-l.results)
	}
}

// fill tops the in-flight set up to capacity: the needed candidate
// first, then the probes-1 candidates after it (up to the sweep's Last
// key), skipping candidates already issued or buffered and never
// launching above pruneAbove.
func (l *launcher) fill(needed int) {
	end := min(needed+l.probes-1, l.sw.Last())
	for c := needed; c <= end; c++ {
		if len(l.issued) >= l.probes {
			return
		}
		if c != needed {
			if l.pruneAbove > 0 && c > l.pruneAbove {
				break
			}
			if _, ok := l.buffered[c]; ok {
				continue
			}
		}
		if _, ok := l.issued[c]; ok {
			continue
		}
		ctx, cancel := context.WithCancel(l.base)
		w := &launch{cand: c, ctx: ctx, cancel: cancel}
		if l.req.Recorder != nil {
			w.buf = &trace.Buffer{}
		}
		l.issued[c] = w
		l.stats.Launched++
		l.work <- w
	}
}

// handle folds one worker outcome into the coordinator state.
func (l *launcher) handle(o outcome) {
	delete(l.issued, o.cand)
	if o.aborted {
		l.stats.Cancelled++
		return
	}
	l.buffered[o.cand] = o
	if o.att.Success() && (l.pruneAbove == 0 || o.cand < l.pruneAbove) {
		l.pruneAbove = o.cand
		for c, w := range l.issued {
			if c > o.cand {
				w.cancel()
			}
		}
	}
}

// reprune recomputes pruneAbove as the lowest buffered success at or
// above the sweep's cursor, or clears it when none remains.
func (l *launcher) reprune(cursor int) {
	l.pruneAbove = 0
	for c, o := range l.buffered {
		if c >= cursor && o.att.Success() && (l.pruneAbove == 0 || c < l.pruneAbove) {
			l.pruneAbove = c
		}
	}
}

// replay re-emits one attempt's privately buffered trace into the
// request's recorder. Replays happen in consume order and the recorder
// reassigns sequence numbers on emit, so the exported stream is
// byte-identical to a sequential run's.
func (l *launcher) replay(buf *trace.Buffer) {
	if l.req.Recorder == nil || buf == nil {
		return
	}
	for _, e := range buf.Events() {
		l.req.Recorder.Emit(e)
	}
}

// shutdown cancels the in-flight probes, drains their outcomes, and
// retires the worker pool. Safe to call after any exit from run.
func (l *launcher) shutdown() {
	if l.shut {
		return
	}
	l.shut = true
	for _, w := range l.issued {
		w.cancel()
	}
	close(l.work)
	for len(l.issued) > 0 {
		o := <-l.results
		delete(l.issued, o.cand)
		if o.aborted {
			l.stats.Cancelled++
		}
	}
	l.wg.Wait()
}

// recOf converts a possibly-nil buffer into a Recorder without boxing a
// typed nil into the interface.
func recOf(b *trace.Buffer) trace.Recorder {
	if b == nil {
		return nil
	}
	return b
}
