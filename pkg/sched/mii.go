package sched

import (
	"fmt"
	"sort"

	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// MII is the minimum-initiation-interval lower bound of a loop on a
// machine, decomposed into its two components as in Rau's modulo
// scheduling framework and the MIRS paper: II can never go below the
// resource bound ResMII nor the recurrence bound RecMII.
type MII struct {
	// Res is the resource-constrained bound: for each operation class,
	// ceil(#ops / #units supporting the class), maximised over classes.
	Res int
	// Rec is the recurrence-constrained bound: the smallest II for which
	// no dependence cycle demands more latency than Distance*II
	// provides, maximised over strongly connected components.
	Rec int
	// MII is max(Res, Rec).
	MII int
	// CriticalClass is the operation class that determines Res.
	CriticalClass machine.OpClass
	// CriticalSCC is the strongly connected component (instruction IDs,
	// ascending) that determines Rec; nil when the graph is acyclic.
	CriticalSCC []int
}

// ComputeMII returns the MII decomposition for graph g on machine m. It
// fails if the loop uses an operation class no functional unit supports,
// or if the graph has an intra-iteration cycle (total distance 0), which
// no II can satisfy.
func ComputeMII(g *ir.Graph, m *machine.Machine) (MII, error) {
	res, critClass, err := ResMII(g.Loop, m)
	if err != nil {
		return MII{}, err
	}
	rec, critSCC, err := RecMII(g)
	if err != nil {
		return MII{}, err
	}
	out := MII{Res: res, Rec: rec, CriticalClass: critClass, CriticalSCC: critSCC}
	out.MII = out.Res
	if out.Rec > out.MII {
		out.MII = out.Rec
	}
	return out, nil
}

// ResMII computes the resource-constrained lower bound of l on m and the
// class that binds it. It is a per-class bound: units serving several
// classes are counted once per class, so the value is a valid (if
// sometimes loose) lower bound even on machines with shared units.
func ResMII(l *ir.Loop, m *machine.Machine) (int, machine.OpClass, error) {
	counts := map[machine.OpClass]int{}
	for _, in := range l.Instrs {
		counts[in.Class]++
	}
	classes := make([]machine.OpClass, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	res, crit := 0, machine.OpClass("")
	for _, c := range classes {
		units := m.UnitsForClass(c)
		if units == 0 {
			return 0, "", fmt.Errorf("sched: machine %q has no unit for class %q used by loop %q", m.Name, c, l.Name)
		}
		bound := (counts[c] + units - 1) / units
		if bound > res {
			res, crit = bound, c
		}
	}
	if res < 1 {
		res = 1
	}
	return res, crit, nil
}

// RecMII computes the recurrence-constrained lower bound of graph g and
// the critical strongly connected component that binds it. For each
// non-trivial SCC it finds, by binary search, the smallest II such that
// no cycle has positive slack latency - II*distance; the component
// maximising that II is critical. An acyclic graph yields RecMII = 1 and
// a nil SCC.
//
// Each probe of the binary search is a Bellman–Ford positive-cycle check
// over the component's internal edge list: O(k·E_scc) in the worst case
// for a k-node component, usually a few rounds thanks to the early exit,
// so one component costs O(k·E_scc·log ΣLat) against the O(k³·log ΣLat)
// of a dense all-pairs pass.
func RecMII(g *ir.Graph) (int, []int, error) {
	rec, critical := 1, []int(nil)
	var rs recScratch
	for _, scc := range SCCs(g) {
		if !sccHasCycle(g, scc) {
			continue
		}
		ii, err := rs.sccMinII(g, scc)
		if err != nil {
			return 0, nil, err
		}
		if ii > rec {
			rec = ii
			critical = append([]int(nil), scc...)
			sort.Ints(critical)
		}
	}
	return rec, critical, nil
}

// SCCs enumerates the strongly connected components of g (over all edges,
// loop-carried included) using Tarjan's algorithm. Components come out in
// reverse topological order; single nodes without self edges are returned
// as singleton components.
func SCCs(g *ir.Graph) [][]int {
	n := g.NumNodes()
	// index and lowlink share one array; every node is pushed and popped
	// exactly once, so the components are carved, in pop order, from one
	// more array of n.
	marks := make([]int, 2*n)
	index, lowlink := marks[:n], marks[n:]
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack = make([]int, 0, n)
		comps = make([]int, 0, n)
		next  int
		out   [][]int
	)
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range g.Succs(v) {
			w := e.To
			if index[w] == -1 {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			start := len(comps)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comps = append(comps, w)
				if w == v {
					break
				}
			}
			out = append(out, comps[start:len(comps):len(comps)])
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	return out
}

// sccHasCycle reports whether the component contains at least one edge
// internal to it (multi-node SCCs always do; singletons only via a self
// edge).
func sccHasCycle(g *ir.Graph, scc []int) bool {
	if len(scc) > 1 {
		return true
	}
	v := scc[0]
	for _, e := range g.Succs(v) {
		if e.To == v {
			return true
		}
	}
	return false
}

// recEdge is one dependence edge internal to a component, its endpoints
// given as positions in the component.
type recEdge struct {
	from, to      int32
	latency, dist int
}

// recScratch holds the buffers RecMII reuses across components and
// across the probes of each component's binary search, allocated on the
// first cyclic component: the node-position table (-1 outside the
// current component) and the Bellman–Ford distance array share one
// array, and the edge list is sized for the whole graph.
type recScratch struct {
	pos, d []int64
	edges  []recEdge
}

// sccMinII finds the smallest II >= 1 such that the component has no
// cycle with positive slack latency - II*distance. Feasibility is
// monotone in II because every cycle inside an SCC of a valid dependence
// graph has total distance >= 1, so binary search applies. The upper
// bound is the sum of internal edge latencies: any cycle's latency is at
// most that sum while its distance is at least 1.
func (rs *recScratch) sccMinII(g *ir.Graph, scc []int) (int, error) {
	if rs.pos == nil {
		n := g.NumNodes()
		buf := make([]int64, 2*n)
		rs.pos, rs.d = buf[:n], buf[n:]
		for i := range rs.pos {
			rs.pos[i] = -1
		}
		rs.edges = make([]recEdge, 0, len(g.Edges))
	}
	for i, v := range scc {
		rs.pos[v] = int64(i)
	}
	rs.edges = rs.edges[:0]
	for i, v := range scc {
		for _, e := range g.Succs(v) {
			if j := rs.pos[e.To]; j >= 0 {
				rs.edges = append(rs.edges, recEdge{from: int32(i), to: int32(j), latency: e.Latency, dist: e.Distance})
			}
		}
	}
	for _, v := range scc {
		rs.pos[v] = -1
	}
	ii, hi, ok := minFeasibleII(rs.edges, rs.d[:len(scc)])
	if !ok {
		return 0, fmt.Errorf("sched: recurrence over %v unsatisfiable at II=%d (distance-0 cycle?)", scc, hi)
	}
	return ii, nil
}

// minFeasibleII binary-searches the smallest II in [1, hi] at which the
// component's edges carry no positive cycle, hi being the sum of their
// latencies (at least 1); d has one entry per component node. ok is
// false when even hi is infeasible — a cycle of total distance 0.
func minFeasibleII(edges []recEdge, d []int64) (ii, hi int, ok bool) {
	for _, e := range edges {
		hi += e.latency
	}
	if hi < 1 {
		hi = 1
	}
	if !noPositiveCycle(edges, d, hi) {
		return 0, hi, false
	}
	lo, top := 1, hi
	for lo < top {
		mid := (lo + top) / 2
		if noPositiveCycle(edges, d, mid) {
			top = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, hi, true
}

// noPositiveCycle reports whether, at the given II, the edges carry no
// cycle of positive weight latency - II*distance. It is Bellman–Ford for
// longest paths from a virtual source joined to every node by a 0-weight
// edge (all of d starts at 0): with k nodes, k-1 rounds settle every
// path, so a k-th round that still improves a distance proves a positive
// cycle, and a round that improves nothing ends the check early.
func noPositiveCycle(edges []recEdge, d []int64, ii int) bool {
	clear(d)
	for round := 0; round < len(d); round++ {
		changed := false
		for _, e := range edges {
			if nd := d[e.from] + int64(e.latency) - int64(ii)*int64(e.dist); nd > d[e.to] {
				d[e.to] = nd
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}
