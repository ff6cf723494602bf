package mirs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// stepAudit is the auditor of the step-level differential tests. After
// every pick, victim search and placement step it compares the
// incremental answers with the whole-loop references of ref_test.go;
// around every spill it builds the reference outcome — the state
// re-seated from scratch, then the previous reset-and-re-seat migration
// — and demands the in-place migration reach exactly that state.
type stepAudit struct {
	name                          string
	err                           error // first disagreement; later checks are skipped
	want                          *state
	picks, victims, steps, spills int
}

func (a *stepAudit) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("%s: "+format, append([]any{a.name}, args...)...)
	}
}

func (a *stepAudit) picked(st *state, u int) {
	a.picks++
	if a.err == nil {
		if want := refNextUnplaced(st); u != want {
			a.fail("II=%d pick %d: nextUnplaced = %d, reference %d", st.ii, a.picks, u, want)
		}
	}
}

func (a *stepAudit) chose(st *state, cluster, minLen, id int, reg ir.VReg, ok bool) {
	a.victims++
	if a.err != nil {
		return
	}
	wid, wreg, wok := refVictim(st, cluster, minLen)
	if ok != wok || (ok && (id != wid || reg != wreg)) {
		a.fail("II=%d victim(%d, %d) = (%d, %s, %v), reference (%d, %s, %v)", st.ii, cluster, minLen, id, reg, ok, wid, wreg, wok)
	}
}

func (a *stepAudit) stepped(st *state) {
	a.steps++
	if a.err != nil {
		return
	}
	fits := true
	for ci := 0; ci < st.m.NumClusters(); ci++ {
		want := refMaxLive(st.track, ci)
		if got := st.track.MaxLive(ci); got != want {
			a.fail("II=%d step %d: MaxLive(%d) = %d, reference %d", st.ii, a.steps, ci, got, want)
			return
		}
		over := max(want-st.m.Clusters[ci].RegFile.Size, 0)
		if got := st.track.Excess(ci); got != over {
			a.fail("II=%d step %d: Excess(%d) = %d, reference %d", st.ii, a.steps, ci, got, over)
			return
		}
		fits = fits && over == 0
	}
	if st.track.FitsAll() != fits {
		a.fail("II=%d step %d: FitsAll = %v, reference %v", st.ii, a.steps, !fits, fits)
		return
	}
	if err := checkIndexes(st); err != nil {
		a.fail("II=%d step %d: %v", st.ii, a.steps, err)
	}
}

func (a *stepAudit) spilling(st *state, id int, reg ir.VReg) {
	a.want = nil
	if a.err != nil {
		return
	}
	pre, err := refState(st)
	if err != nil {
		a.fail("II=%d spill %d: from-scratch state: %v", st.ii, a.spills+1, err)
		return
	}
	if err := diffState(st, pre); err != nil {
		a.fail("II=%d before spill %d of (%d, %s): state differs from a from-scratch re-seat: %v", st.ii, a.spills+1, id, reg, err)
		return
	}
	ok, err := refApplySpill(pre, id, reg)
	if err != nil || !ok {
		a.fail("II=%d spill %d of (%d, %s): reference migration: ok=%v err=%v", st.ii, a.spills+1, id, reg, ok, err)
		return
	}
	a.want = pre
}

func (a *stepAudit) spilled(st *state) {
	a.spills++
	if a.err != nil || a.want == nil {
		return
	}
	if err := diffState(st, a.want); err != nil {
		a.fail("II=%d after spill %d: in-place migration differs from the reset-and-re-seat reference: %v", st.ii, a.spills, err)
	}
	a.want = nil
}

// checkIndexes recomputes, from the placement and the charged table, the
// frontier (adj, near, far) and the victim emptiness index (elig,
// liveCount), and compares them with the incrementally kept ones.
func checkIndexes(st *state) error {
	n := st.loop.NumInstrs()
	adj := make([]int32, n)
	for i := range st.g.Edges {
		e := &st.g.Edges[i]
		if e.From == e.To {
			continue
		}
		if st.placed[e.From] {
			adj[e.To]++
		}
		if st.placed[e.To] {
			adj[e.From]++
		}
	}
	if !slices.Equal(adj, st.adj[:n]) {
		return fmt.Errorf("adj = %v, from scratch %v", st.adj[:n], adj)
	}
	for id := 0; id < n; id++ {
		r := st.rank[id]
		inNear := st.near[r>>6]&(1<<(r&63)) != 0
		inFar := st.far[r>>6]&(1<<(r&63)) != 0
		if wantNear, wantFar := !st.placed[id] && adj[id] > 0, !st.placed[id] && adj[id] == 0; inNear != wantNear || inFar != wantFar {
			return fmt.Errorf("instruction %d (placed %v, adj %d) filed near=%v far=%v", id, st.placed[id], adj[id], inNear, inFar)
		}
	}
	nc := st.m.NumClusters()
	elig := make([]int32, len(st.thr)*nc)
	for id := 0; id < n; id++ {
		for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
			if st.noSpill[id] || st.facts[fi].cons == 0 {
				continue
			}
			for _, lt := range st.charged[fi] {
				for k, t := range st.thr {
					if lt.Length() >= t {
						elig[k*nc+lt.Cluster]++
					}
				}
			}
		}
	}
	if !slices.Equal(elig, st.elig) {
		return fmt.Errorf("victim index counts = %v, from scratch %v", st.elig, elig)
	}
	live := make([]int32, nc)
	for r := 0; r < st.nregs; r++ {
		for ci := 0; ci < nc; ci++ {
			if st.liveIn[r*nc+ci] > 0 {
				live[ci]++
			}
		}
	}
	if !slices.Equal(live, st.liveCount) {
		return fmt.Errorf("live-in counts = %v, from scratch %v", st.liveCount, live)
	}
	return nil
}

// diffState reports the first difference between two states' loop,
// graph, placement, counters and every derived table: MRT occupancy and
// bus references, tracker counts, charged lifetimes, live-in refcounts
// and reads, heights, the placement rank and the incremental indexes.
func diffState(st, ref *state) error {
	if st.ii != ref.ii {
		return fmt.Errorf("II %d vs %d", st.ii, ref.ii)
	}
	n := st.loop.NumInstrs()
	if n != ref.loop.NumInstrs() {
		return fmt.Errorf("%d vs %d instructions", n, ref.loop.NumInstrs())
	}
	for i := 0; i < n; i++ {
		if a, b := st.loop.Instrs[i].String(), ref.loop.Instrs[i].String(); a != b {
			return fmt.Errorf("instruction %d: %q vs %q", i, a, b)
		}
	}
	if !slices.Equal(st.g.Edges, ref.g.Edges) {
		return fmt.Errorf("graph edges differ")
	}
	switch {
	case !slices.Equal(st.plc[:n], ref.plc[:n]):
		return fmt.Errorf("placements differ")
	case !slices.Equal(st.placed[:n], ref.placed[:n]):
		return fmt.Errorf("placed flags differ")
	case !slices.Equal(st.noSpill[:n], ref.noSpill[:n]):
		return fmt.Errorf("noSpill differs")
	case !slices.Equal(st.forcedAt[:n], ref.forcedAt[:n]):
		return fmt.Errorf("forcedAt differs")
	case st.budget != ref.budget || st.spills != ref.spills:
		return fmt.Errorf("budget/spills %d/%d vs %d/%d", st.budget, st.spills, ref.budget, ref.spills)
	case st.ejections != ref.ejections || st.spillStores != ref.spillStores || st.spillLoads != ref.spillLoads:
		return fmt.Errorf("counters %d/%d/%d vs %d/%d/%d", st.ejections, st.spillStores, st.spillLoads,
			ref.ejections, ref.spillStores, ref.spillLoads)
	case !slices.Equal(st.height, ref.height):
		return fmt.Errorf("heights %v vs %v", st.height, ref.height)
	case !slices.Equal(st.order[:n], ref.order[:n]) || !slices.Equal(st.rank[:n], ref.rank[:n]):
		return fmt.Errorf("placement rank differs")
	case !st.mrt.Equal(ref.mrt):
		return fmt.Errorf("MRT occupancy or bus references differ")
	}
	nc := st.m.NumClusters()
	for ci := 0; ci < nc; ci++ {
		for c := 0; c < st.ii; c++ {
			if a, b := st.track.PressureAt(ci, c), ref.track.PressureAt(ci, c); a != b {
				return fmt.Errorf("tracker count cluster %d cycle %d: %d vs %d", ci, c, a, b)
			}
		}
		if a, b := st.track.MaxLive(ci), ref.track.MaxLive(ci); a != b {
			return fmt.Errorf("MaxLive(%d) %d vs %d", ci, a, b)
		}
	}
	if !slices.Equal(st.defBase[:n+1], ref.defBase[:n+1]) || !slices.Equal(st.defRegs, ref.defRegs) {
		return fmt.Errorf("definition slot layout differs")
	}
	if !slices.Equal(st.facts[:len(st.defRegs)], ref.facts[:len(ref.defRegs)]) {
		return fmt.Errorf("per-slot consumer facts differ")
	}
	for fi := range st.defRegs {
		if !slices.Equal(st.charged[fi], ref.charged[fi]) {
			return fmt.Errorf("charged slot %d (%s): %v vs %v", fi, st.defRegs[fi], st.charged[fi], ref.charged[fi])
		}
	}
	if st.nregs != ref.nregs || !slices.Equal(st.liveIn[:st.nregs*nc], ref.liveIn[:ref.nregs*nc]) {
		return fmt.Errorf("live-in refcounts differ")
	}
	if !slices.Equal(st.liveCount, ref.liveCount) {
		return fmt.Errorf("live-in counts %v vs %v", st.liveCount, ref.liveCount)
	}
	for i := 0; i < n; i++ {
		if !slices.Equal(st.liveInUses[i], ref.liveInUses[i]) {
			return fmt.Errorf("live-in reads of %d: %v vs %v", i, st.liveInUses[i], ref.liveInUses[i])
		}
	}
	if !slices.Equal(st.adj[:n], ref.adj[:n]) {
		return fmt.Errorf("adj %v vs from scratch %v", st.adj[:n], ref.adj[:n])
	}
	if !slices.Equal(st.near, ref.near) || !slices.Equal(st.far, ref.far) {
		return fmt.Errorf("frontier bitsets differ")
	}
	if !slices.Equal(st.elig, ref.elig) {
		return fmt.Errorf("victim index counts %v vs %v", st.elig, ref.elig)
	}
	return checkIndexes(st)
}

// audited is a sched.Prober that installs an auditor in the MIRS
// attempter, so sched.Drive runs the real search under it.
type audited struct {
	s *Scheduler
	a auditor
}

func (p audited) Name() string { return p.s.Name() }

func (p audited) Schedule(req *sched.Request) (*sched.Schedule, error) { return sched.Drive(req, p) }

func (p audited) Probe(req *sched.Request) (sched.Sweep, sched.Attempter, error) {
	sw, at, err := p.s.Probe(req)
	if err == nil {
		at.(*attempter).audit = p.a
	}
	return sw, at, err
}

// stepPopulation is the step-level population: 60 generated loops, two
// loops of every corner preset and the first 4 large balanced loops of
// the benchmark's scale shape.
func stepPopulation() []*ir.Loop {
	loops := gen.Corpus(1, 60)
	for _, k := range gen.Corners() {
		loops = append(loops, gen.CornerCorpus(1, 2, k)...)
	}
	for i := 0; i < 4; i++ {
		s := gen.Mix(1, i)
		ops := 96 + int(s%33)
		l := gen.Generate(s, gen.Knobs{Tag: "scale", Ops: ops})
		l.Name = fmt.Sprintf("s%04d-%dops", i, ops)
		loops = append(loops, l)
	}
	return loops
}

// TestStepsMatchReferences drives MIRS over the step population on the
// three stock machines and, at every step, holds the incremental
// bookkeeping to the whole-loop references: the same pick, the same
// victim, the same MaxLive/Excess per cluster, and after every spill a
// state equal to the reset-and-re-seat migration's. The audited run must
// also return the unaudited run's schedule. The large loops on tight —
// two thirds of the ~1M checked steps — are left out under the race
// detector, which would take minutes over them.
func TestStepsMatchReferences(t *testing.T) {
	var picks, victims, spills int
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range stepPopulation() {
			if raceEnabled && m.Name == "tight" && strings.HasPrefix(l.Name, "s0") {
				continue
			}
			a := &stepAudit{name: l.Name + " on " + m.Name}
			got, err := sched.Drive(&sched.Request{Loop: l, Machine: m}, audited{New(), a})
			if a.err != nil {
				t.Fatal(a.err)
			}
			want, werr := New().Schedule(&sched.Request{Loop: l, Machine: m})
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s: audited error %v, plain %v", a.name, err, werr)
			}
			if err == nil && (got.II != want.II || !slices.Equal(got.Placements, want.Placements)) {
				t.Fatalf("%s: audited schedule differs from the plain one", a.name)
			}
			picks, victims, spills = picks+a.picks, victims+a.victims, spills+a.spills
		}
	}
	t.Logf("checked %d picks, %d victim searches, %d spills", picks, victims, spills)
	if spills == 0 || victims == 0 {
		t.Fatal("population never spilled: the migration went unchecked")
	}
}

// TestCacheCountersSpanSpills: the window-cache counters an attempt
// reports (trace cache_hit/cache_miss at ii_end) count every lookup of
// the attempt. Each lookup adds one and Reset zeroes them once per
// candidate II, so the reported total is the attempt's lookup count
// exactly when the counters never fall within the attempt: observed at
// every checkpoint, across spills too (a spill used to zero them, and an
// attempt then reported only the lookups after its last spill), they
// only grow, and the reported total is at least every observation.
func TestCacheCountersSpanSpills(t *testing.T) {
	l := gen.CornerCorpus(1, 1, gen.Corners()[len(gen.Corners())-1])[0] // storm
	w := &cacheWatch{}
	buf := &trace.Buffer{}
	if _, err := sched.Drive(&sched.Request{Loop: l, Machine: machine.Tight(), Recorder: buf}, audited{New(), w}); err != nil {
		t.Fatal(err)
	}
	if w.err != nil {
		t.Fatal(w.err)
	}
	var spilling int
	var lookups int64
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.KindIIStart:
			lookups = 0
		case trace.KindCacheHit, trace.KindCacheMiss:
			lookups += e.Arg
		case trace.KindIIEnd:
			if last := w.last[e.II]; lookups < last {
				t.Errorf("II=%d: reported %d lookups, the attempt had made %d by its last checkpoint", e.II, lookups, last)
			}
			if w.spill[e.II] {
				spilling++
			}
		}
	}
	if spilling == 0 {
		t.Fatal("no attempt spilled: the regression went unexercised")
	}
}

// cacheWatch records the window-cache lookup totals per attempt at every
// checkpoint and fails if they ever fall within an attempt.
type cacheWatch struct {
	last  map[int32]int64
	spill map[int32]bool // attempts that spilled
	err   error
}

func (w *cacheWatch) observe(st *state) {
	if w.last == nil {
		w.last, w.spill = map[int32]int64{}, map[int32]bool{}
	}
	hits, misses := st.wc.Stats()
	ii := int32(st.ii)
	if prev, ok := w.last[ii]; ok && hits+misses < prev && w.err == nil {
		w.err = fmt.Errorf("II=%d: lookup count fell from %d to %d", ii, prev, hits+misses)
	}
	w.last[ii] = hits + misses
}

func (w *cacheWatch) picked(st *state, u int) { w.observe(st) }
func (w *cacheWatch) chose(st *state, _, _, _ int, _ ir.VReg, _ bool) {
	w.observe(st)
}
func (w *cacheWatch) stepped(st *state)                    { w.observe(st) }
func (w *cacheWatch) spilling(st *state, _ int, _ ir.VReg) { w.observe(st) }
func (w *cacheWatch) spilled(st *state) {
	w.observe(st)
	w.spill[int32(st.ii)] = true
}
