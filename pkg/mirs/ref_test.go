package mirs

// The previous whole-loop versions of the MIRS bookkeeping, kept as the
// references the incremental state is checked against in step_test.go:
// the linear-scan pick, the edge-walking victim scan, the O(II) MaxLive
// and the reset-and-re-seat spill migration. They read and write the
// state's tables directly; refVictim reads the live-in refcounts through
// the current register-major layout and emits no trace event.

import (
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// refNextUnplaced is the linear-scan pick: among the unplaced ops with a
// placed dependence neighbour the highest, ties to the lowest ID; the
// highest unplaced op when none borders the placed region.
func refNextUnplaced(st *state) int {
	best, bestAdj := -1, false
	adjacent := func(id int) bool {
		for _, e := range st.g.Preds(id) {
			if e.From != id && st.placed[e.From] {
				return true
			}
		}
		for _, e := range st.g.Succs(id) {
			if e.To != id && st.placed[e.To] {
				return true
			}
		}
		return false
	}
	for id := range st.placed {
		if st.placed[id] {
			continue
		}
		adj := adjacent(id)
		if adj != bestAdj {
			if adj {
				best, bestAdj = id, true
			}
			continue
		}
		if best == -1 || st.height[id] > st.height[best] {
			best = id
		}
	}
	return best
}

// refVictim is the full victim scan, consumer counts and carried-ness
// walked from the graph on every call.
func refVictim(st *state, cluster, minLen int) (int, ir.VReg, bool) {
	type cand struct {
		id      int
		reg     ir.VReg
		length  int
		uses    int
		carried bool
	}
	var best *cand
	better := func(a, b *cand) bool { // is a better than b
		if a.carried != b.carried {
			return !a.carried
		}
		if st.vpolicy == VictimFewestUses {
			if a.uses != b.uses {
				return a.uses < b.uses
			}
			if a.length != b.length {
				return a.length > b.length
			}
		} else {
			if a.length != b.length {
				return a.length > b.length
			}
			if a.uses != b.uses {
				return a.uses < b.uses
			}
		}
		return a.id < b.id
	}
	for id := 0; id < st.loop.NumInstrs(); id++ {
		if st.noSpill[id] {
			continue
		}
		for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
			if len(st.charged[fi]) == 0 {
				continue
			}
			reg := st.defRegs[fi]
			length := 0
			for _, lt := range st.charged[fi] {
				if lt.Cluster != cluster {
					continue
				}
				if l := lt.Length(); l > length {
					length = l
				}
			}
			if length < minLen {
				continue
			}
			uses, carried, any := 0, true, false
			for _, e := range st.g.Succs(id) {
				if e.Kind != ir.DepTrue || e.Reg != reg {
					continue
				}
				any = true
				uses++
				if e.Distance == 0 {
					carried = false
				}
			}
			if !any {
				continue
			}
			c := &cand{id: id, reg: reg, length: length, uses: uses, carried: carried}
			if best == nil || better(c, best) {
				best = c
			}
		}
	}
	if st.ii >= minLen {
		nc := st.m.NumClusters()
		for r := 0; r < st.nregs; r++ {
			if st.liveIn[r*nc+cluster] <= 0 {
				continue
			}
			reg := ir.VReg(r)
			uses := 0
			for _, in := range st.loop.Instrs {
				for _, u := range in.Uses {
					if u == reg {
						uses++
						break
					}
				}
			}
			c := &cand{id: -1, reg: reg, length: st.ii, uses: uses}
			if best == nil || better(c, best) {
				best = c
			}
		}
	}
	if best == nil {
		return 0, 0, false
	}
	return best.id, best.reg, true
}

// refMaxLive is the O(II) scan of the tracker's per-cycle counts.
func refMaxLive(t *regpress.Tracker, cluster int) int {
	max := 0
	for c := 0; c < t.II(); c++ {
		if n := t.PressureAt(cluster, c); n > max {
			max = n
		}
	}
	return max
}

// refState builds, from scratch, the state st's placement implies: a
// fresh state reset over st's loop and graph, with st's per-instruction
// tables and counters copied in and every placement re-seated.
func refState(st *state) (*state, error) {
	ref, err := newState(st.g, st.m, st.ii)
	if err != nil {
		return nil, err
	}
	ref.vpolicy = st.vpolicy
	if err := ref.reset(st.loop, st.g, st.ii, st.maxRetries, st.maxSpill, nil, st.liveInUses); err != nil {
		return nil, err
	}
	copy(ref.noSpill, st.noSpill)
	copy(ref.forcedAt, st.forcedAt)
	ref.budget, ref.spills = st.budget, st.spills
	ref.ejections, ref.spillStores, ref.spillLoads = st.ejections, st.spillStores, st.spillLoads
	if err := refReseat(ref, st.plc, st.placed); err != nil {
		return nil, err
	}
	return ref, nil
}

// refReseat seats the placements (plc, placed) in st, freshly reset with
// nothing placed: unit slots, then bus transfers (one per cross-cluster
// true edge with both ends placed), then the pressure account, then the
// frontier — the re-seat of the previous applySpill.
func refReseat(st *state, plc []sched.Placement, placed []bool) error {
	copy(st.plc, plc)
	copy(st.placed, placed)
	n := st.loop.NumInstrs()
	for nid := 0; nid < n; nid++ {
		if !st.placed[nid] {
			continue
		}
		p := st.plc[nid]
		if err := st.mrt.Reserve(p.Cluster, p.Slot, p.Cycle, nid); err != nil {
			return fmt.Errorf("re-seating instruction %d: %v", nid, err)
		}
	}
	for i := range st.g.Edges {
		e := &st.g.Edges[i]
		if e.Kind != ir.DepTrue || e.From == e.To || !st.placed[e.From] || !st.placed[e.To] {
			continue
		}
		if st.plc[e.From].Cluster == st.plc[e.To].Cluster {
			continue
		}
		tr := sched.Transfer{From: e.From, Reg: e.Reg, Dest: st.plc[e.To].Cluster,
			Cycle: sched.TransferCycle(st.m, st.loop, st.plc, e.From)}
		if err := st.mrt.AddTransfer(tr); err != nil {
			return fmt.Errorf("re-seating transfer of %s from %d to cluster %d: %v", tr.Reg, tr.From, tr.Dest, err)
		}
	}
	for nid := 0; nid < n; nid++ {
		if !st.placed[nid] {
			continue
		}
		for _, d := range st.loop.Instrs[nid].Defs {
			st.refreshDef(nid, d)
		}
		st.liveInAdjust(nid, 1)
	}
	st.rebuildFrontier()
	return nil
}

// refApplySpill is the previous applySpill: materialise the spill, carry
// the per-instruction tables across, then reset every table and re-seat
// every surviving placement under the new graph, and eject the rewired
// consumers last. It never releases a superseded spill (the state under
// test still refers to it).
func refApplySpill(st *state, id int, reg ir.VReg) (bool, error) {
	var sp *ir.Spill
	var err error
	if id < 0 {
		sp, err = ir.MaterializeLiveInSpill(st.loop, st.m, st.g, reg)
	} else {
		sp, err = ir.MaterializeSpill(st.loop, st.m, st.g, id, reg)
	}
	if err != nil {
		return false, nil
	}
	st.spills++
	if sp.StoreID >= 0 {
		st.spillStores++
	}
	st.spillLoads += len(sp.ReloadIDs)
	n := sp.Loop.NumInstrs()
	st.budget += st.maxRetries * (n - st.loop.NumInstrs())
	plc := make([]sched.Placement, n)
	placed := make([]bool, n)
	noSpill := make([]bool, n)
	forcedAt := make([]int, n)
	for old, now := range sp.OldToNew {
		plc[now] = st.plc[old]
		placed[now] = st.placed[old]
		noSpill[now] = st.noSpill[old]
		forcedAt[now] = st.forcedAt[old]
	}
	if id >= 0 {
		noSpill[sp.OldToNew[id]] = true
		noSpill[sp.StoreID] = true
	}
	for _, rid := range sp.ReloadIDs {
		noSpill[rid] = true
	}
	height, err := sched.Heights(sp.Graph)
	if err != nil {
		return false, err
	}
	liveInUses := refSpliceLiveInUses(st.liveInUses, sp, id < 0, reg)
	budget, spills := st.budget, st.spills
	ejections, stores, loads := st.ejections, st.spillStores, st.spillLoads
	if err := st.reset(sp.Loop, sp.Graph, st.ii, st.maxRetries, st.maxSpill, height, liveInUses); err != nil {
		return false, err
	}
	copy(st.noSpill, noSpill)
	copy(st.forcedAt, forcedAt)
	st.budget, st.spills = budget, spills
	st.ejections, st.spillStores, st.spillLoads = ejections, stores, loads
	if err := refReseat(st, plc, placed); err != nil {
		return false, err
	}
	for _, rid := range sp.ReloadIDs {
		if c := rid + 1; st.placed[c] {
			st.unplace(c)
		}
	}
	return true, nil
}

// refSpliceLiveInUses carries the per-instruction live-in reads across a
// spill into a fresh table.
func refSpliceLiveInUses(rows [][]ir.VReg, sp *ir.Spill, liveIn bool, reg ir.VReg) [][]ir.VReg {
	out := make([][]ir.VReg, sp.Loop.NumInstrs())
	for old, row := range rows {
		out[sp.OldToNew[old]] = row
	}
	if !liveIn {
		return out
	}
	for _, rid := range sp.ReloadIDs {
		c := rid + 1
		var kept []ir.VReg
		for _, v := range out[c] {
			if v != reg {
				kept = append(kept, v)
			}
		}
		out[c] = kept
	}
	return out
}
