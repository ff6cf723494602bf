package ir

import (
	"fmt"
	"sort"

	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// DepKind classifies a dependence edge.
type DepKind int

const (
	// DepTrue is a flow (read-after-write) dependence: the consumer
	// reads the value the producer computes, so its latency is the
	// producer's result latency.
	DepTrue DepKind = iota
	// DepAnti is a write-after-read dependence: the writer must not
	// clobber the register before the reader has issued.
	DepAnti
	// DepOutput is a write-after-write dependence between two
	// definitions of the same register.
	DepOutput
	// DepMem is a memory dependence (store/load ordering). The builder
	// never infers these — alias analysis is out of scope — but callers
	// can add them with Graph.AddEdge.
	DepMem
)

// String returns "true", "anti", "output" or "mem".
func (k DepKind) String() string {
	switch k {
	case DepTrue:
		return "true"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	case DepMem:
		return "mem"
	}
	return fmt.Sprintf("DepKind(%d)", int(k))
}

// Edge is one dependence in the graph. The scheduling constraint it
// encodes is
//
//	start(To) >= start(From) + Latency - Distance*II
//
// where II is the initiation interval of the modulo schedule.
type Edge struct {
	// From and To are instruction IDs (producer and consumer).
	From, To int
	// Kind classifies the dependence.
	Kind DepKind
	// Distance is the number of iterations the dependence crosses:
	// 0 for an intra-iteration edge, >=1 for a loop-carried one.
	Distance int
	// Latency is the minimum issue-cycle separation the edge demands.
	Latency int
	// Reg is the virtual register that induced the edge (unset for
	// DepMem edges).
	Reg VReg
}

// Graph is the data dependence graph of one loop body. Nodes are the
// loop's instruction IDs; edges carry kind, distance and latency.
type Graph struct {
	// Loop is the loop the graph was built from.
	Loop *Loop
	// Edges holds every dependence. Do not append directly; use AddEdge
	// so adjacency stays consistent.
	Edges []Edge

	// opts are the normalised options the register edges were derived
	// with; a spill splice derives its edges under the same options.
	opts BuildOptions
	// nreg is the length of the register-dependence prefix of Edges:
	// Build's per-register blocks, ascending by register. DepMem edges
	// (spill orderings, AddEdge) follow it.
	nreg int

	// The adjacency is a CSR index over edge pointers, built once when
	// the graph is: adj[succOff[v]:succOff[v+1]] are v's outgoing edges
	// and adj[predOff[v]:predOff[v+1]] its incoming ones, each in edge
	// order; both offset tables are halves of off. Succs and Preds hand
	// out capacity-capped windows of adj, so the accessors are
	// allocation-free and safe for concurrent readers of a graph that is
	// no longer being mutated.
	off, succOff, predOff []int32
	adj                   []*Edge
}

// BuildOptions tunes dependence-edge latencies and distances.
type BuildOptions struct {
	// AntiLatency is the latency of anti edges. The default 0 lets a
	// redefinition issue in the same cycle as the last read, which
	// matches a VLIW that reads operands at issue.
	AntiLatency int
	// OutputLatency is the latency of output edges; default 1.
	OutputLatency int
	// RenameCopies is the number of rotating register copies the
	// scheduler may assume modulo variable expansion
	// (sched.Schedule.Expand) will allocate per register. The default 1
	// models a machine without renaming: a value must die before the
	// next iteration overwrites its register, which is what forces
	// II >= producer latency whenever a consumer trails its producer by
	// more than II cycles — the wrap-around anti-edge penalty.
	//
	// With k copies, a use reading the definition from δ iterations
	// back (δ = 0 for an ordinary same-iteration read, 1 for a
	// wrap-around read, CarriedUses for explicit ones) conflicts only
	// with the redefinition k-δ iterations ahead, because the
	// intervening iterations write different renamed copies. Anti
	// edges therefore carry distance max(0, k-δ) instead of the strict
	// max(0, 1-δ), and the wrap-around output edge carries k: lifetimes
	// may stretch up to k·II cycles and the expansion absorbs the
	// overlap by renaming. Schedulers trade kernel size (the unroll
	// factor) for II by scheduling against a relaxed graph. Registers
	// with several definition sites in the body keep strict edges —
	// their sites share a copy name within an iteration, so relaxation
	// would be unsound. Values below 1 mean the default.
	RenameCopies int
}

// Build derives the dependence graph of l against machine m.
//
// Register dependences use nearest-def semantics: a use reads the nearest
// definition strictly before it in the body, or — when no definition
// precedes it — the last definition of the previous iteration (a
// loop-carried edge with distance 1). An instruction whose CarriedUses
// maps register v to k instead reads the last definition from k
// iterations back. Anti edges run from each use to the next definition,
// and output edges chain successive definitions, both wrapping around the
// loop body with distance 1. True-edge latency is the producer's class
// latency on m.
//
// Memory dependences are not inferred; add them with AddEdge if the loop
// needs store/load ordering.
func Build(l *Loop, m *machine.Machine, opts *BuildOptions) (*Graph, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	o := BuildOptions{AntiLatency: 0, OutputLatency: 1, RenameCopies: 1}
	if opts != nil {
		o = *opts
	}
	if o.RenameCopies < 1 {
		o.RenameCopies = 1
	}

	// Gather def and use positions per register, in body order.
	defs := map[VReg][]int{}
	uses := map[VReg][]int{}
	for i, in := range l.Instrs {
		for _, d := range in.Defs {
			defs[d] = append(defs[d], i)
		}
		for _, u := range in.Uses {
			// A register read twice by one instruction (v1 * v1) is one
			// dependence, not two.
			if n := len(uses[u]); n > 0 && uses[u][n-1] == i {
				continue
			}
			uses[u] = append(uses[u], i)
		}
	}

	regs := make([]VReg, 0, len(defs))
	for v := range defs {
		regs = append(regs, v)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })

	// The edge population is known exactly up front, so the edge array
	// and the adjacency index are sized once instead of grown per append.
	nEdges := 0
	for _, v := range regs {
		nEdges += regEdgeCount(len(defs[v]), len(uses[v]))
	}
	edges := make([]Edge, 0, nEdges)
	for _, v := range regs {
		edges = appendRegEdges(edges, l, m, o, v, defs[v], uses[v])
	}
	g := &Graph{Loop: l, Edges: edges, opts: o, nreg: len(edges)}
	g.index()
	return g, nil
}

// regEdgeCount is the size of one register's block: one true and one
// anti edge per use plus one output edge per definition site (the chain
// and the wrap).
func regEdgeCount(ndefs, nuses int) int { return 2*nuses + ndefs }

// appendRegEdges appends register v's dependence block — true edges,
// then anti edges, then output edges — to dst. dv and uv are the body
// positions of v's definitions and of the instructions reading it (each
// reader once), ascending. It is the single statement of the
// nearest-def, anti and output rules, shared by Build and the spill
// splice (spill.go), which is what keeps a spliced graph edge for edge
// equal to a rebuilt one.
func appendRegEdges(dst []Edge, l *Loop, m *machine.Machine, o BuildOptions, v VReg, dv, uv []int) []Edge {
	last := dv[len(dv)-1]

	// True edges: each use reads its reaching definition.
	for _, u := range uv {
		if k, carried := carriedDistance(l.Instrs[u], v); carried {
			dst = append(dst, Edge{From: last, To: u, Kind: DepTrue, Distance: k,
				Latency: m.Latency(l.Instrs[last].Class), Reg: v})
			continue
		}
		from, dist := -1, 0
		for _, d := range dv {
			if d < u {
				from = d
			}
		}
		if from == -1 {
			from, dist = last, 1
		}
		dst = append(dst, Edge{From: from, To: u, Kind: DepTrue, Distance: dist,
			Latency: m.Latency(l.Instrs[from].Class), Reg: v})
	}

	// Anti edges: each use must issue no later than the conflicting
	// redefinition of what it reads. With a single definition site
	// and RenameCopies = k, a use reading δ iterations back
	// conflicts with the redefinition k-δ iterations ahead (the
	// ones between write different renamed copies); the strict
	// k = 1 reproduces the classic rule — wrap-around reads bind
	// the same iteration's definition, same-iteration reads the
	// next iteration's. Multi-site registers keep strict edges to
	// the next definition in body order.
	single := len(dv) == 1
	for _, u := range uv {
		if single {
			delta := 0
			if k, carried := carriedDistance(l.Instrs[u], v); carried {
				delta = k
			} else if u <= dv[0] {
				delta = 1 // no definition precedes the use: a wrap-around read
			}
			dist := o.RenameCopies - delta
			if dist < 0 {
				dist = 0
			}
			if u == dv[0] && dist < 1 {
				// A self anti edge (the instruction reads what it
				// writes) is vacuous at distance >= 1 but would be
				// unsatisfiable at 0 under a positive AntiLatency.
				dist = 1
			}
			dst = append(dst, Edge{From: u, To: dv[0], Kind: DepAnti, Distance: dist, Latency: o.AntiLatency, Reg: v})
			continue
		}
		to, dist := -1, 0
		for _, d := range dv {
			if d > u {
				to = d
				break
			}
		}
		if to == -1 {
			to, dist = dv[0], 1
		}
		dst = append(dst, Edge{From: u, To: to, Kind: DepAnti, Distance: dist, Latency: o.AntiLatency, Reg: v})
	}

	// Output edges: chain successive definitions, wrapping around.
	// The wrap edge of a single-site register relaxes with
	// RenameCopies — the same copy name recurs only every k
	// iterations.
	for i := 0; i+1 < len(dv); i++ {
		dst = append(dst, Edge{From: dv[i], To: dv[i+1], Kind: DepOutput, Distance: 0, Latency: o.OutputLatency, Reg: v})
	}
	wrapOut := 1
	if single {
		wrapOut = o.RenameCopies
	}
	return append(dst, Edge{From: last, To: dv[0], Kind: DepOutput, Distance: wrapOut, Latency: o.OutputLatency, Reg: v})
}

// Options returns the normalised options the graph's register edges were
// derived with (defaults filled in). A graph produced by spill
// materialisation carries its source graph's options.
func (g *Graph) Options() BuildOptions { return g.opts }

func carriedDistance(in *Instruction, v VReg) (int, bool) {
	if in.CarriedUses == nil {
		return 0, false
	}
	k, ok := in.CarriedUses[v]
	return k, ok
}

// AddEdge appends an edge (typically a DepMem ordering constraint) and
// re-indexes the adjacency, O(nodes + edges) per call: it is for the
// handful of edges a caller adds by hand, not for bulk construction. It
// returns an error if the edge references unknown nodes or has a
// negative distance or latency.
func (g *Graph) AddEdge(e Edge) error {
	n := g.NumNodes()
	if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
		return fmt.Errorf("ir: edge %d->%d outside graph of %d nodes", e.From, e.To, n)
	}
	if e.Distance < 0 {
		return fmt.Errorf("ir: edge %d->%d with negative distance %d", e.From, e.To, e.Distance)
	}
	if e.Latency < 0 {
		return fmt.Errorf("ir: edge %d->%d with negative latency %d", e.From, e.To, e.Latency)
	}
	if e.Distance == 0 && e.From == e.To {
		return fmt.Errorf("ir: self edge %d->%d with distance 0 is unsatisfiable", e.From, e.To)
	}
	g.Edges = append(g.Edges, e)
	g.index()
	return nil
}

// index builds the CSR adjacency in two allocations: per-node counts
// are turned into row ends by a prefix sum, then a reverse walk over the
// edges fills each row back to front, leaving every row in edge order
// and every offset at its row's start. The arrays are reused when their
// capacity allows (AddEdge, recycled spill storage), which is safe
// because every earlier view is invalidated by then.
func (g *Graph) index() {
	n := g.Loop.NumInstrs()
	off := reuse(g.off, 2*(n+1))
	clear(off)
	so, po := off[:n+1], off[n+1:]
	for i := range g.Edges {
		so[g.Edges[i].From]++
		po[g.Edges[i].To]++
	}
	ne := int32(len(g.Edges))
	for v := 1; v < n; v++ {
		so[v] += so[v-1]
		po[v] += po[v-1]
	}
	for v := 0; v < n; v++ {
		po[v] += ne
	}
	so[n], po[n] = ne, 2*ne
	adj := reuse(g.adj, int(2*ne))
	for i := len(g.Edges) - 1; i >= 0; i-- {
		e := &g.Edges[i]
		so[e.From]--
		adj[so[e.From]] = e
		po[e.To]--
		adj[po[e.To]] = e
	}
	g.off, g.succOff, g.predOff, g.adj = off, so, po, adj
}

// reuse returns s resliced to n elements when its capacity allows, or a
// fresh slice with half again as much headroom: a spill chain grows its
// loop a little with every spill, and recycled storage must still fit
// the spills after it. The contents are stale either way; callers
// overwrite them.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	return s[:n]
}

// NumNodes returns the number of instructions in the graph.
func (g *Graph) NumNodes() int { return len(g.succOff) - 1 }

// Succs returns the outgoing edges of node id, in edge order. The
// returned slice is a shared adjacency view: callers must not mutate
// it, and it is invalidated by the next AddEdge.
func (g *Graph) Succs(id int) []*Edge {
	o := g.succOff[id : id+2 : id+2]
	return g.adj[o[0]:o[1]:o[1]]
}

// Preds returns the incoming edges of node id, in edge order. The
// returned slice is a shared adjacency view: callers must not mutate
// it, and it is invalidated by the next AddEdge.
func (g *Graph) Preds(id int) []*Edge {
	o := g.predOff[id : id+2 : id+2]
	return g.adj[o[0]:o[1]:o[1]]
}

// IntraTopoOrder returns the nodes in a topological order of the
// intra-iteration (distance-0) subgraph, which is always acyclic for a
// well-formed loop: every cycle in a dependence graph must cross an
// iteration boundary. Schedulers use this as their placement order.
func (g *Graph) IntraTopoOrder() ([]int, error) {
	order, _, err := g.IntraTopoOrderInto(nil, nil)
	return order, err
}

// IntraTopoOrderInto is IntraTopoOrder into the caller's buffers: the
// order is written to order's storage and indeg is in-degree scratch,
// each reused when its capacity allows and returned for the next call,
// so a caller ordering many graphs allocates nothing once they have
// grown.
func (g *Graph) IntraTopoOrderInto(order, indeg []int) ([]int, []int, error) {
	n := g.NumNodes()
	if cap(indeg) < n {
		indeg = make([]int, n)
	}
	indeg = indeg[:n]
	clear(indeg)
	for _, e := range g.Edges {
		if e.Distance == 0 {
			indeg[e.To]++
		}
	}
	// Kahn's algorithm with the output doubling as the FIFO queue: every
	// node is enqueued exactly once, and order[head:] is what is pending.
	if cap(order) < n {
		order = make([]int, 0, n)
	}
	order = order[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, e := range g.Succs(order[head]) {
			if e.Distance != 0 {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				order = append(order, e.To)
			}
		}
	}
	if len(order) != n {
		return order, indeg, fmt.Errorf("ir: intra-iteration dependence cycle in loop %q", g.Loop.Name)
	}
	return order, indeg, nil
}
