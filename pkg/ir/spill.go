package ir

import (
	"fmt"
	"sync"

	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// This file synthesises spill code: given a victim definition, it clones
// the loop with a store inserted right after the definition and one
// reload inserted right before each consumer, rewires the consumers onto
// fresh virtual registers, and splices the dependence graph to match,
// adding the store→reload memory edges that keep the spilled value's
// round trip ordered. The MIRS backend uses it to shorten over-long
// lifetimes while a schedule is in flight; the old instructions keep
// their placements via the returned ID mapping and only the new
// store/reloads need scheduling.
//
// The splice is a local edit, not a rebuild: it is O(instructions +
// edges) and uses no maps, yet its result is edge for edge what Build
// of the rewritten loop (under the source graph's options) followed by
// AddEdge of the memory edges would produce. Instruction IDs shift
// (every insertion renumbers what follows it), but the shift is
// monotone, so every register block of the source graph other than the
// spilled register's is the old block with remapped endpoints; only the
// spilled register's block and the fresh reload registers' blocks are
// derived anew, through the same per-register emitter Build uses.

// OpSpillStore and OpSpillReload are the mnemonics of synthesised spill
// instructions. Both are ClassMem: spill code competes for memory ports
// like any other load or store, which is exactly the paper's point about
// integrating spilling with scheduling.
const (
	OpSpillStore  = "spill.st"
	OpSpillReload = "spill.ld"
)

// Spill is the result of materialising one spill.
type Spill struct {
	// Loop is the rewritten loop; the original is untouched.
	Loop *Loop
	// Graph is the dependence graph of Loop under the source graph's
	// options: the register edges Build would derive, then the new
	// store→reload memory edges in consumer order, then the DepMem edges
	// carried over (remapped) from the source graph, in their order.
	Graph *Graph
	// StoreID is the new spill store's instruction ID in Loop, or -1 for
	// a live-in spill (the value already lives in memory; only reloads
	// are needed).
	StoreID int
	// ReloadIDs are the new reload instruction IDs, one per rewritten
	// consumer, in body order.
	ReloadIDs []int
	// ReloadRegs are the fresh virtual registers the reloads define,
	// parallel to ReloadIDs.
	ReloadRegs []VReg
	// OldToNew maps every instruction ID of the source loop to its ID in
	// Loop, so an in-flight schedule can carry its placements across.
	OldToNew []int

	bufs *spillBufs // the storage behind Loop and Graph, until Release
}

// spillBufs is the storage behind one spill's loop and graph: the
// instruction array and its pointer table, the edge array and the
// adjacency index. Release recycles it through spillPool so a chain of
// spills on one loop reaches a steady state without allocating them
// anew. The consumers' rewritten operand slices are not part of it:
// later spills' clones share them.
type spillBufs struct {
	body   []Instruction
	instrs []*Instruction
	edges  []Edge
	off    []int32
	adj    []*Edge
}

var spillPool = sync.Pool{New: func() any { return new(spillBufs) }}

// Release hands the storage behind sp.Loop and sp.Graph back for reuse by
// later spills and clears both fields. Call it only when nothing refers
// to the spilled loop or graph any more — not their instructions, edges
// or adjacency views, and not a schedule built over them — typically
// right after the next spill of the same chain has replaced them.
// Releasing is optional; an unreleased spill is garbage collected as
// usual. Releasing twice is a no-op.
func (sp *Spill) Release() {
	if sp.bufs == nil {
		return
	}
	spillPool.Put(sp.bufs)
	sp.bufs, sp.Loop, sp.Graph = nil, nil, nil
}

// MaterializeSpill spills the value that instruction defID writes to reg:
// the consumers of that definition (true-dependence readers, taken from
// g) are rewired to read fresh registers defined by per-consumer reloads,
// a store of reg is inserted immediately after the definition, and each
// reload sits immediately before its consumer so nearest-def semantics
// give the reload's value to exactly that consumer. A consumer at
// dependence distance d gets a store→reload DepMem edge with distance d:
// the reload reads what the store wrote d iterations earlier. DepMem
// edges already present in g are carried over with remapped endpoints,
// and the new graph is derived under g's options (Graph.Options).
//
// The spilled definition's lifetime shrinks to definition→store, and each
// reload's to reload→consumer — that is the pressure relief. The cost is
// two ClassMem operations plus memory latency on the consumer's path.
func MaterializeSpill(l *Loop, m *machine.Machine, g *Graph, defID int, reg VReg) (*Spill, error) {
	if g == nil || g.Loop != l {
		return nil, fmt.Errorf("ir: spill of %s in loop %q: graph does not belong to the loop", reg, l.Name)
	}
	if defID < 0 || defID >= l.NumInstrs() {
		return nil, fmt.Errorf("ir: spill of %s: no instruction %d in loop %q", reg, defID, l.Name)
	}
	defines := false
	for _, d := range l.Instrs[defID].Defs {
		if d == reg {
			defines = true
		}
	}
	if !defines {
		return nil, fmt.Errorf("ir: spill: instruction %d of loop %q does not define %s", defID, l.Name, reg)
	}

	// Consumers of this specific definition with their dependence
	// distances: the definition's true edges for reg, which its register
	// block emits once per reader in ascending body order.
	var consumers, dists []int
	for _, e := range g.Succs(defID) {
		if e.Kind != DepTrue || e.Reg != reg {
			continue
		}
		if n := len(consumers); n > 0 && e.To <= consumers[n-1] {
			return nil, fmt.Errorf("ir: spill of %s (def %d) in loop %q: true edges out of order; graph not derived by Build", reg, defID, l.Name)
		}
		consumers = append(consumers, e.To)
		dists = append(dists, e.Distance)
	}
	if len(consumers) == 0 {
		return nil, fmt.Errorf("ir: spill: definition of %s by instruction %d has no consumers", reg, defID)
	}
	return splice(l, m, g, defID, reg, consumers, dists), nil
}

// MaterializeLiveInSpill spills a live-in value — a register the loop
// reads but never writes (loop invariants, coefficients, scalars). Such a
// value occupies a register on every kernel cycle of every cluster that
// consumes it, which makes it exactly the paper's preferred victim: the
// longest possible lifetime with the fewest uses. Because the value
// already exists outside the loop it needs no store — the preheader is
// assumed to park it in its spill slot — so the rewrite just inserts one
// reload before each consuming instruction and rewires that consumer to
// the reload's fresh register. The returned Spill has StoreID == -1.
func MaterializeLiveInSpill(l *Loop, m *machine.Machine, g *Graph, reg VReg) (*Spill, error) {
	if g == nil || g.Loop != l {
		return nil, fmt.Errorf("ir: live-in spill of %s in loop %q: graph does not belong to the loop", reg, l.Name)
	}
	var consumers []int
	for id, in := range l.Instrs {
		for _, d := range in.Defs {
			if d == reg {
				return nil, fmt.Errorf("ir: live-in spill: %s is defined by instruction %d of loop %q", reg, id, l.Name)
			}
		}
		if reads(in, reg) {
			consumers = append(consumers, id)
		}
	}
	if len(consumers) == 0 {
		return nil, fmt.Errorf("ir: live-in spill: loop %q does not use %s", l.Name, reg)
	}
	return splice(l, m, g, -1, reg, consumers, nil), nil
}

func reads(in *Instruction, v VReg) bool {
	for _, u := range in.Uses {
		if u == v {
			return true
		}
	}
	return false
}

// splice performs a validated spill of reg: a reload before each of the
// ascending consumers, and — unless defID is -1 (a live-in) — a store
// right after defID, whose store→reload edges carry dists. It assembles
// the new body in one Instruction array and the new edge array in the
// order Build plus AddEdge would produce, then indexes it once.
func splice(l *Loop, m *machine.Machine, g *Graph, defID int, reg VReg, consumers, dists []int) *Spill {
	n, k := l.NumInstrs(), len(consumers)
	n2 := n + k
	if defID >= 0 {
		n2++
	}
	nextReg := VReg(0)
	nUses := 0 // operand slots the rewritten consumers need
	for _, in := range l.Instrs {
		for _, v := range in.Defs {
			if v >= nextReg {
				nextReg = v + 1
			}
		}
		for _, v := range in.Uses {
			if v >= nextReg {
				nextReg = v + 1
			}
		}
	}
	for _, c := range consumers {
		nUses += len(l.Instrs[c].Uses)
	}

	b := spillPool.Get().(*spillBufs)
	sp := &Spill{StoreID: -1, OldToNew: make([]int, n), ReloadIDs: make([]int, k), ReloadRegs: make([]VReg, k), bufs: b}
	out := &Loop{Name: l.Name, Instrs: reuse(b.instrs, n2)}
	body := reuse(b.body, n2)
	// Operand storage for the new instructions: the reloads' Defs, the
	// store's Uses and the consumers' rewritten Uses, each a
	// capacity-capped window so no append can reach a neighbour's.
	opnds := make([]VReg, k+1+nUses)
	// The spilled register's definition and reader positions in the new
	// body (readers once each, ascending), for its re-derived block.
	var regDefs, regUses []int
	pos, ci := 0, 0
	put := func(in Instruction) int {
		in.ID = pos
		body[pos] = in
		out.Instrs[pos] = &body[pos]
		pos++
		return pos - 1
	}
	for old, in := range l.Instrs {
		clone := *in
		if ci < k && consumers[ci] == old {
			r := nextReg + VReg(ci)
			defs := opnds[:1:1]
			defs[0] = r
			opnds = opnds[1:]
			sp.ReloadIDs[ci] = put(Instruction{Op: OpSpillReload, Class: machine.ClassMem, Defs: defs, SpillOf: reg})
			sp.ReloadRegs[ci] = r
			uses := opnds[:len(in.Uses):len(in.Uses)]
			opnds = opnds[len(in.Uses):]
			for i, u := range in.Uses {
				if u == reg {
					u = r
				}
				uses[i] = u
			}
			clone.Uses = uses
			if _, carried := in.CarriedUses[reg]; carried {
				clone.CarriedUses = nil
				for v, d := range in.CarriedUses {
					if v == reg {
						continue
					}
					if clone.CarriedUses == nil {
						clone.CarriedUses = map[VReg]int{}
					}
					clone.CarriedUses[v] = d
				}
			}
			ci++
		} else if reads(in, reg) {
			regUses = append(regUses, pos)
		}
		now := put(clone)
		sp.OldToNew[old] = now
		for _, d := range in.Defs {
			if d == reg {
				regDefs = append(regDefs, now) // once per def operand, as Build lists them
			}
		}
		// A self-consuming definition (first-order recurrence) is both
		// consumer and victim, so the store check runs on either path.
		if old == defID {
			uses := opnds[:1:1]
			uses[0] = reg
			opnds = opnds[1:]
			regUses = append(regUses, pos)
			sp.StoreID = put(Instruction{Op: OpSpillStore, Class: machine.ClassMem, Uses: uses})
		}
	}

	// The edge count grows by at most 4k: a three-edge block per reload
	// register and a store→reload edge each, while reg's block gains
	// the store as a reader and loses the k rewired consumers.
	edges := reuse(b.edges, len(g.Edges)+4*k)[:0]

	// Register blocks ascend by register and the reload registers are
	// the largest, so the source prefix (remapped, with reg's block
	// replaced in place) comes first and the reload blocks follow in
	// body order. A live-in has no block to replace.
	remap := sp.OldToNew
	for i := 0; i < g.nreg; {
		e := g.Edges[i]
		if e.Reg == reg {
			edges = appendRegEdges(edges, out, m, g.opts, reg, regDefs, regUses)
			for i < g.nreg && g.Edges[i].Reg == reg {
				i++
			}
			continue
		}
		e.From, e.To = remap[e.From], remap[e.To]
		edges = append(edges, e)
		i++
	}
	for i, rid := range sp.ReloadIDs {
		site := [2]int{rid, rid + 1} // the reload defines, its consumer reads
		edges = appendRegEdges(edges, out, m, g.opts, sp.ReloadRegs[i], site[:1], site[1:])
	}
	nreg := len(edges)

	// Store→reload ordering: the reload reads what the store wrote
	// Distance iterations earlier, so it must issue at least the store's
	// completion (memory latency) later. Caller-provided memory edges
	// follow with remapped endpoints.
	if defID >= 0 {
		memLat := m.Latency(machine.ClassMem)
		for i, rid := range sp.ReloadIDs {
			edges = append(edges, Edge{From: sp.StoreID, To: rid, Kind: DepMem, Distance: dists[i], Latency: memLat})
		}
	}
	for i := g.nreg; i < len(g.Edges); i++ {
		if e := g.Edges[i]; e.Kind == DepMem {
			e.From, e.To = remap[e.From], remap[e.To]
			edges = append(edges, e)
		}
	}

	sp.Loop = out
	sp.Graph = &Graph{Loop: out, Edges: edges, opts: g.opts, nreg: nreg, off: b.off, adj: b.adj}
	sp.Graph.index()
	b.body, b.instrs, b.edges, b.off, b.adj = body, out.Instrs, edges, sp.Graph.off, sp.Graph.adj
	return sp
}
