package mirs

import (
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/regpress"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// This file is the integrated-spilling half of MIRS: picking the victim
// lifetime when a cluster's register file overflows, materialising the
// store/reload pair through ir.MaterializeSpill, and carrying the
// in-flight schedule across to the augmented loop so only the new spill
// code needs placing.

// victim selects the lifetime to spill from an over-pressure cluster.
// Under the default VictimLongest policy it follows the paper: prefer
// the longest lifetime, break ties toward fewest uses (cheapest reload
// traffic); VictimFewestUses inverts the order. Live-in values consumed
// on the cluster are candidates too — they hold a register on every
// kernel cycle, making them the longest lifetimes of all, and they spill
// for reloads only (id -1 in the result marks one). Lifetimes with only
// loop-carried consumers are deprioritised — spilling them threads memory
// latency into a recurrence and can raise RecMII — and spill-generated
// values are never victims. minLen filters lifetimes too short for a
// store/reload round trip to shorten.
//
// Most searches find nothing; the victim emptiness index answers those
// in O(1), and only a search that has a candidate scans.
func (st *state) victim(cluster, minLen int) (id int, reg ir.VReg, ok bool) {
	if !st.noVictim(cluster, minLen) {
		id, reg, ok = st.scanVictim(cluster, minLen)
	}
	if st.audit != nil {
		st.audit.chose(st, cluster, minLen, id, reg, ok)
	}
	return id, reg, ok
}

// noVictim reports from the emptiness index that no definition and no
// live-in on cluster qualifies at minLen. It only answers for the two
// relief thresholds; any other length reports false (scan).
func (st *state) noVictim(cluster, minLen int) bool {
	nc := len(st.liveCount)
	for k, t := range st.thr {
		if t == minLen {
			return st.elig[k*nc+cluster] == 0 && (st.ii < minLen || st.liveCount[cluster] == 0)
		}
	}
	return false
}

// scanVictim is the victim search proper: every charged definition and
// every live-in on the cluster, best by the policy's order.
func (st *state) scanVictim(cluster, minLen int) (int, ir.VReg, bool) {
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
	// The dense charged table iterates definitions in (id, reg) order by
	// construction (defRegs ascends within an instruction); an empty slot
	// is a currently-uncharged (unplaced or dead) definition.
	for id := 0; id < st.loop.NumInstrs(); id++ {
		if st.noSpill[id] {
			continue
		}
		for fi := st.defBase[id]; fi < st.defBase[id+1]; fi++ {
			f := st.facts[fi]
			if len(st.charged[fi]) == 0 || f.cons == 0 {
				continue // uncharged, or a dead value: spilling it frees nothing
			}
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
			c := &cand{id: id, reg: st.defRegs[fi], length: length, uses: int(f.cons), carried: f.carried}
			if best == nil || better(c, best) {
				best = c
			}
		}
	}
	// Live-ins consumed on this cluster: whole-kernel lifetimes, reload
	// traffic equal to their number of consuming instructions.
	if st.ii >= minLen {
		nc := len(st.liveCount)
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
	if st.rec != nil {
		label := "live-in"
		if best.id >= 0 {
			label = st.loop.Instrs[best.id].Op
		}
		st.rec.Emit(trace.Event{Kind: trace.KindVictim, II: int32(st.ii), Op: int32(best.id),
			Cluster: int32(cluster), Cycle: -1, Reg: int32(best.reg),
			Arg: int64(best.length), Aux: int64(best.uses), Label: label})
	}
	return best.id, best.reg, true
}

// relieveTracked spills one victim from the cluster the incremental
// tracker reports worst over budget. Mid-placement pressure is an
// underestimate (consumers still unplaced will stretch lifetimes), so
// only clearly profitable victims are taken here — the relaxed search
// belongs to the authoritative final pass. It returns false when there is
// nothing (more) it can do: no overflow, no victim, or spill budget
// exhausted.
func (st *state) relieveTracked() bool {
	worst, excess := -1, 0
	for ci := 0; ci < st.m.NumClusters(); ci++ {
		if e := st.track.Excess(ci); e > excess {
			worst, excess = ci, e
		}
	}
	if worst == -1 {
		return false
	}
	if st.spills >= st.maxSpill {
		return false
	}
	id, reg, ok := st.victim(worst, 2*st.memLat+1)
	if !ok {
		return false
	}
	return st.applySpill(id, reg)
}

// relieveWorst spills one victim from the cluster the authoritative
// regpress result reports worst over budget. This is the final-pass
// relief: lifetimes are fully known here, so it first demands a victim
// long enough to clearly profit from a store/reload round trip, then
// relaxes to anything longer than a single memory access before giving
// up.
func (st *state) relieveWorst(press *regpress.Result) bool {
	worst, excess := -1, 0
	for ci, ml := range press.MaxLivePerCluster {
		if over := ml - st.m.Clusters[ci].RegFile.Size; over > excess {
			worst, excess = ci, over
		}
	}
	if worst == -1 {
		return false
	}
	if st.spills >= st.maxSpill {
		return false
	}
	id, reg, ok := st.victim(worst, 2*st.memLat+1)
	if !ok {
		id, reg, ok = st.victim(worst, st.memLat)
	}
	if !ok {
		return false
	}
	return st.applySpill(id, reg)
}

// applySpill rewrites the loop with spill code for (id, reg) — a
// store/reload pair for a definition, reloads only for a live-in (id ==
// -1) — and migrates the scheduling state to the new instruction
// numbering in place. Placed instructions keep their placements — the
// materialised spill code is exactly the unplaced remainder, so the spill
// is scheduled *inside* the ongoing schedule rather than restarting it.
//
// The migration costs what the spill changes, not the loop's size in
// reservations: the rewired consumers are ejected first, under the old
// graph whose edges reserved their transfers, pressure and live-in
// references; then every table holding instruction IDs — the
// per-instruction arrays, the MRT's occupants and transfer producers,
// the charged slots — is renumbered through the monotone OldToNew map;
// the tracker's counts hold no IDs and stay as they are. Under the new
// graph only the spilled definition's lifetime changes, so only it is
// refreshed; heights, the placement rank and the frontier are rederived
// in O(n + E) into reused buffers.
func (st *state) applySpill(id int, reg ir.VReg) bool {
	if st.audit != nil {
		st.audit.spilling(st, id, reg)
	}
	var sp *ir.Spill
	var err error
	if id < 0 {
		sp, err = ir.MaterializeLiveInSpill(st.loop, st.m, st.g, reg)
	} else {
		sp, err = ir.MaterializeSpill(st.loop, st.m, st.g, id, reg)
	}
	if err != nil {
		return false
	}
	st.spills++
	if sp.StoreID >= 0 {
		st.spillStores++
	}
	st.spillLoads += len(sp.ReloadIDs)
	if st.rec != nil {
		stores := int64(0)
		if sp.StoreID >= 0 {
			stores = 1
		}
		st.rec.Emit(trace.Event{Kind: trace.KindSpill, II: int32(st.ii), Op: int32(id),
			Cluster: -1, Cycle: -1, Reg: int32(reg), Arg: stores, Aux: int64(len(sp.ReloadIDs))})
	}

	n := sp.Loop.NumInstrs()
	// The force budget is a per-instruction allowance (MaxRetries × n);
	// spill code grows n, so it earns budget at the same rate. Without
	// this, heavy spilling starves the budget that was sized for the
	// original body and placement dies half-done at every II.
	st.budget += st.maxRetries * (n - st.loop.NumInstrs())

	// Eject the rewritten consumers so they reschedule after their
	// reloads. A consumer kept in place would leave each reload an
	// (often empty) window squeezed between the store and the consumer's
	// old slot, and every empty window costs a forced placement; ejecting
	// up front lets the reload seat itself and the consumer follow it.
	// MaterializeSpill emits each reload immediately before its consumer,
	// so the consumer's new ID is the reload's plus one; its old ID is
	// found by walking the monotone OldToNew alongside.
	old := 0
	for _, rid := range sp.ReloadIDs {
		for sp.OldToNew[old] != rid+1 {
			old++
		}
		if st.placed[old] {
			st.ejectAs(old, rid+1)
		}
	}

	// Carry the per-instruction tables across in place. OldToNew is
	// monotone and never maps an instruction below its old ID, so a
	// backward walk reads every old entry before anything overwrites it;
	// the slots left over are the new spill code's, reset to unplaced.
	if !st.ownUses {
		st.liuBuf, st.ownUses = append(st.liuBuf[:0], st.liveInUses...), true
	}
	st.plc = grow(st.plc, n)
	st.placed = grow(st.placed, n)
	st.noSpill = grow(st.noSpill, n)
	st.forcedAt = grow(st.forcedAt, n)
	st.liuBuf = grow(st.liuBuf, n)
	st.liveInUses = st.liuBuf
	for old := len(sp.OldToNew) - 1; old >= 0; old-- {
		now := sp.OldToNew[old]
		st.plc[now] = st.plc[old]
		st.placed[now] = st.placed[old]
		st.noSpill[now] = st.noSpill[old]
		st.forcedAt[now] = st.forcedAt[old]
		st.liveInUses[now] = st.liveInUses[old]
	}
	fresh := func(x int) {
		st.plc[x], st.placed[x], st.noSpill[x], st.forcedAt[x] = sched.Placement{}, false, true, 0
		st.liveInUses[x] = nil // spill code reads no live-in
	}
	if id >= 0 {
		st.noSpill[sp.OldToNew[id]] = true // a spilled value is not spilled twice
		fresh(sp.StoreID)
	} else {
		// A live-in spill rewires the consumers off the live-in, so it
		// drops out of their rows (which may be shared: fresh slices).
		for _, rid := range sp.ReloadIDs {
			var kept []ir.VReg
			for _, v := range st.liveInUses[rid+1] {
				if v != reg {
					kept = append(kept, v)
				}
			}
			st.liveInUses[rid+1] = kept
		}
	}
	for _, rid := range sp.ReloadIDs {
		fresh(rid)
	}
	st.mrt.Renumber(sp.OldToNew)

	// Swap in the new loop and graph. The superseded spill is released:
	// nothing refers to it any more.
	if st.spilled != nil {
		st.spilled.Release()
	}
	st.loop, st.g, st.spilled = sp.Loop, sp.Graph, sp
	st.lview.Loop, st.lview.Graph = sp.Loop, sp.Graph
	st.wc.Rebind(st.g)
	st.oldBase, st.defBase = st.defBase, st.oldBase
	st.bindSlots()
	st.moveCharged(sp)
	nc := st.m.NumClusters()
	if k := len(st.liveIn); st.nregs*nc > k {
		st.liveIn = grow(st.liveIn, st.nregs*nc)
		clear(st.liveIn[k:])
	}
	if id >= 0 {
		st.refreshDef(sp.OldToNew[id], reg)
	}
	st.recount()

	// Failures below this point would leave the state half-migrated, and
	// none can occur for a well-formed spill (the spliced graph is acyclic
	// intra-iteration), so they panic as internal bugs rather than
	// corrupting the in-flight schedule.
	st.hbuf, st.hwork, err = sched.HeightsInto(st.g, st.hbuf, st.hwork)
	if err != nil {
		panic(fmt.Sprintf("mirs: spill of %s (def %d): %v", reg, id, err))
	}
	st.height = st.hbuf
	st.rankOrder()
	st.rebuildFrontier()
	if st.audit != nil {
		st.audit.spilled(st)
	}
	return true
}

// moveCharged carries the charged slots across a spill: old slot j of
// instruction i moves to the same offset within instruction
// OldToNew[i]'s slots (a spill never changes an old instruction's
// definitions). The new slot index grows strictly with j and is never
// below it, so a descending walk that swaps each slot into place only
// ever swaps out spare storage, never a slot still to be moved; the spill
// code's slots end up with spare storage, truncated. The lifetimes' Def
// fields are renumbered with their slot.
func (st *state) moveCharged(sp *ir.Spill) {
	st.charged = grow(st.charged, len(st.defRegs))
	for old := len(sp.OldToNew) - 1; old >= 0; old-- {
		now := sp.OldToNew[old]
		for j := st.oldBase[old+1] - 1; j >= st.oldBase[old]; j-- {
			p := st.defBase[now] + j - st.oldBase[old]
			st.charged[j], st.charged[p] = st.charged[p], st.charged[j]
			for k := range st.charged[p] {
				st.charged[p][k].Def = now
			}
		}
	}
	trunc := func(x int) {
		for fi := st.defBase[x]; fi < st.defBase[x+1]; fi++ {
			st.charged[fi] = st.charged[fi][:0]
		}
	}
	if sp.StoreID >= 0 {
		trunc(sp.StoreID)
	}
	for _, rid := range sp.ReloadIDs {
		trunc(rid)
	}
	st.carve()
}
