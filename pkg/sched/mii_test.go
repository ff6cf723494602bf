package sched

import (
	"fmt"
	"sort"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// narrow returns a 1-ALU, 1-mem, 1-mul, 1-branch machine so resource
// bounds bite quickly.
func narrow() *machine.Machine {
	return machine.NewBuilder("narrow").
		Latency(machine.ClassALU, 1).
		Latency(machine.ClassMul, 2).
		Latency(machine.ClassMem, 2).
		Latency(machine.ClassBranch, 1).
		Cluster("c0", 32,
			machine.FU("alu", machine.ClassALU),
			machine.FU("mul", machine.ClassMul),
			machine.FU("mem", machine.ClassMem),
			machine.FU("br", machine.ClassBranch)).
		MustBuild()
}

func buildGraph(t *testing.T, l *ir.Loop, m *machine.Machine) *ir.Graph {
	t.Helper()
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatalf("Build(%s): %v", l.Name, err)
	}
	return g
}

func TestComputeMIITableDriven(t *testing.T) {
	cases := []struct {
		name          string
		loop          *ir.Loop
		mach          *machine.Machine
		wantRes       int
		wantRec       int
		wantMII       int
		wantCritClass machine.OpClass
		wantCritSCC   []int // nil = don't care / acyclic
	}{
		{
			// 3 ALU ops on 1 ALU: ResMII-bound at 3. (RecMII is 2: a
			// latency-2 load plus the wrap-around anti edge on its
			// address register needs II >= 2 without rotating registers.)
			name: "dotprod resource-bound on narrow",
			loop: ir.DotProduct(), mach: narrow(),
			wantRes: 3, wantRec: 2, wantMII: 3, wantCritClass: machine.ClassALU,
		},
		{
			// Wide unified machine: resources are free (ResMII = 1) and
			// the load-latency/anti cycle sets MII = RecMII = 2.
			name: "dotprod on unified",
			loop: ir.DotProduct(), mach: machine.Unified(),
			wantRes: 1, wantRec: 2, wantMII: 2,
		},
		{
			// 5 memory ops on 2 ports: ResMII = ceil(5/2) = 3 dominates
			// the latency-2 anti cycles (RecMII = 2).
			name: "fir resource-bound on unified",
			loop: ir.FIR(), mach: machine.Unified(),
			wantRes: 3, wantRec: 2, wantMII: 3, wantCritClass: machine.ClassMem,
		},
		{
			// Recurrence x[i] = z[i]*(y + x[i-2]): latency 3 over
			// distance 2 gives RecMII = ceil(3/2) = 2 > ResMII = 1. The
			// wrap-around anti edges stitch the whole body into one SCC.
			name: "livermore recurrence-bound on unified",
			loop: ir.Livermore(), mach: machine.Unified(),
			wantRes: 1, wantRec: 2, wantMII: 2, wantCritSCC: []int{0, 1, 2, 3, 4, 5, 6},
		},
		{
			// Degenerate single-instruction loop: every component is 1.
			name: "single instruction",
			loop: ir.SingleInstruction(), mach: machine.Unified(),
			wantRes: 1, wantRec: 1, wantMII: 1, wantCritClass: machine.ClassALU,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGraph(t, tc.loop, tc.mach)
			got, err := ComputeMII(g, tc.mach)
			if err != nil {
				t.Fatalf("ComputeMII: %v", err)
			}
			if got.Res != tc.wantRes {
				t.Errorf("ResMII = %d, want %d", got.Res, tc.wantRes)
			}
			if got.Rec != tc.wantRec {
				t.Errorf("RecMII = %d, want %d", got.Rec, tc.wantRec)
			}
			if got.MII != tc.wantMII {
				t.Errorf("MII = %d, want %d", got.MII, tc.wantMII)
			}
			if got.MII != max(got.Res, got.Rec) {
				t.Errorf("MII = %d != max(Res=%d, Rec=%d)", got.MII, got.Res, got.Rec)
			}
			if tc.wantCritClass != "" && got.CriticalClass != tc.wantCritClass {
				t.Errorf("CriticalClass = %q, want %q", got.CriticalClass, tc.wantCritClass)
			}
			if tc.wantCritSCC != nil {
				gotSCC := append([]int(nil), got.CriticalSCC...)
				sort.Ints(gotSCC)
				if len(gotSCC) != len(tc.wantCritSCC) {
					t.Fatalf("CriticalSCC = %v, want %v", gotSCC, tc.wantCritSCC)
				}
				for i := range gotSCC {
					if gotSCC[i] != tc.wantCritSCC[i] {
						t.Fatalf("CriticalSCC = %v, want %v", gotSCC, tc.wantCritSCC)
					}
				}
			}
		})
	}
}

func TestRecMIIDeepRecurrence(t *testing.T) {
	// A hand-built distance-3 recurrence: fmul(2) -> fmul(2) -> load,
	// whose carried edge closes the cycle with the load's latency (2),
	// so total latency 6 over distance 3: RecMII = ceil(6/3) = 2.
	m := machine.Unified()
	l := &ir.Loop{Name: "deep", Instrs: []*ir.Instruction{
		{ID: 0, Op: "fmul", Class: machine.ClassMul, Defs: []ir.VReg{1}, Uses: []ir.VReg{0},
			CarriedUses: map[ir.VReg]int{0: 3}},
		{ID: 1, Op: "fmul", Class: machine.ClassMul, Defs: []ir.VReg{2}, Uses: []ir.VReg{1}},
		{ID: 2, Op: "load", Class: machine.ClassMem, Defs: []ir.VReg{0}, Uses: []ir.VReg{2}},
	}}
	g := buildGraph(t, l, m)
	rec, scc, err := RecMII(g)
	if err != nil {
		t.Fatalf("RecMII: %v", err)
	}
	if rec != 2 {
		t.Errorf("RecMII = %d, want 2", rec)
	}
	sort.Ints(scc)
	if len(scc) != 3 {
		t.Errorf("critical SCC = %v, want all three nodes", scc)
	}
}

func TestResMIIUnsupportedClass(t *testing.T) {
	l := &ir.Loop{Name: "fp", Instrs: []*ir.Instruction{
		{ID: 0, Op: "sqrt", Class: machine.OpClass("fpu"), Defs: []ir.VReg{0}},
	}}
	if _, _, err := ResMII(l, machine.Unified()); err == nil {
		t.Error("ResMII accepted a class the machine cannot execute")
	}
}

func TestSCCsPartition(t *testing.T) {
	for _, l := range ir.ExampleLoops() {
		g := buildGraph(t, l, machine.Unified())
		sccs := SCCs(g)
		seen := map[int]int{}
		for _, comp := range sccs {
			for _, v := range comp {
				seen[v]++
			}
		}
		if len(seen) != l.NumInstrs() {
			t.Errorf("%s: SCCs cover %d nodes, want %d", l.Name, len(seen), l.NumInstrs())
		}
		for v, n := range seen {
			if n != 1 {
				t.Errorf("%s: node %d appears in %d components", l.Name, v, n)
			}
		}
	}
}

// refRecMII is the previous RecMII, kept verbatim as the oracle the
// Bellman–Ford probe is checked against: the same SCC walk and binary
// search, each probe a dense k×k Floyd–Warshall longest-path pass.
func refRecMII(g *ir.Graph) (int, []int, error) {
	rec, critical := 1, []int(nil)
	for _, scc := range SCCs(g) {
		if !sccHasCycle(g, scc) {
			continue
		}
		ii, err := refSCCMinII(g, scc)
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

func refSCCMinII(g *ir.Graph, scc []int) (int, error) {
	pos := make([]int, g.NumNodes())
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range scc {
		pos[v] = i
	}
	var edges []recEdge
	for i, v := range scc {
		for _, e := range g.Succs(v) {
			if j := pos[e.To]; j >= 0 {
				edges = append(edges, recEdge{from: int32(i), to: int32(j), latency: e.Latency, dist: e.Distance})
			}
		}
	}
	ii, hi, ok := refMinFeasibleII(len(scc), edges)
	if !ok {
		return 0, fmt.Errorf("sched: recurrence over %v unsatisfiable at II=%d (distance-0 cycle?)", scc, hi)
	}
	return ii, nil
}

// refMinFeasibleII is the binary search over the Floyd–Warshall
// feasibility check, on an edge list over k nodes.
func refMinFeasibleII(k int, edges []recEdge) (ii, hi int, ok bool) {
	for _, e := range edges {
		hi += e.latency
	}
	if hi < 1 {
		hi = 1
	}
	dist := make([]int64, k*k)
	if !refFeasible(k, edges, dist, hi) {
		return 0, hi, false
	}
	lo, top := 1, hi
	for lo < top {
		mid := (lo + top) / 2
		if refFeasible(k, edges, dist, mid) {
			top = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, hi, true
}

func refFeasible(k int, edges []recEdge, dist []int64, ii int) bool {
	const negInf = -1 << 40
	for i := range dist {
		dist[i] = negInf
	}
	for _, e := range edges {
		w := int64(e.latency - ii*e.dist)
		if i := int(e.from)*k + int(e.to); w > dist[i] {
			dist[i] = w
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if dist[i*k+m] == negInf {
				continue
			}
			for j := 0; j < k; j++ {
				if dist[m*k+j] == negInf {
					continue
				}
				if d := dist[i*k+m] + dist[m*k+j]; d > dist[i*k+j] {
					dist[i*k+j] = d
				}
			}
		}
	}
	for i := 0; i < k; i++ {
		if dist[i*k+i] > 0 {
			return false
		}
	}
	return true
}

// recPopulation is the differential population: the generated corpus,
// 20 loops of every corner preset and 20 large balanced loops shaped like
// the benchmark's scale workload.
func recPopulation() []*ir.Loop {
	loops := gen.Corpus(1, 250)
	for _, k := range gen.Corners() {
		loops = append(loops, gen.CornerCorpus(1, 20, k)...)
	}
	for i := 0; i < 20; i++ {
		s := gen.Mix(1, i)
		loops = append(loops, gen.Generate(s, gen.Knobs{Tag: "scale", Ops: 96 + int(s%33)}))
	}
	return loops
}

// TestRecMIIMatchesFloydWarshall pins the Bellman–Ford RecMII to the
// Floyd–Warshall oracle — bound, critical component and error — on every
// graph of the population on the three stock machines.
func TestRecMIIMatchesFloydWarshall(t *testing.T) {
	graphs := 0
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, l := range recPopulation() {
			g := buildGraph(t, l, m)
			rec, crit, err := RecMII(g)
			wrec, wcrit, werr := refRecMII(g)
			if fmt.Sprint(err) != fmt.Sprint(werr) || rec != wrec || fmt.Sprint(crit) != fmt.Sprint(wcrit) {
				t.Fatalf("%s on %s: RecMII = %d %v %v, oracle %d %v %v", l.Name, m.Name, rec, crit, err, wrec, wcrit, werr)
			}
			graphs++
		}
	}
	if graphs != 1410 {
		t.Fatalf("population has %d graphs, want 1410", graphs)
	}
}

// FuzzRecMII checks the Bellman–Ford binary search against the
// Floyd–Warshall oracle on random strongly connected components: a ring
// through every node (so the component is strongly connected) plus
// random chords, latencies 0–7 and distances 0–3, including components
// whose only cycles have distance 0 (both must report unsatisfiable).
func FuzzRecMII(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 1, 1, 0})
	f.Add([]byte{1, 5, 1})
	f.Add([]byte{6, 2, 0, 3, 0, 1, 0, 4, 1, 2, 2, 7, 3, 9, 1, 0, 5, 3})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%12
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		var edges []recEdge
		for v := 0; v < k; v++ {
			b := next()
			edges = append(edges, recEdge{from: int32(v), to: int32((v + 1) % k), latency: b % 8, dist: (b / 8) % 4})
		}
		for len(data) >= 3 {
			a, b, c := next(), next(), next()
			edges = append(edges, recEdge{from: int32(a % k), to: int32(b % k), latency: c % 8, dist: (c / 8) % 4})
		}
		d := make([]int64, k)
		ii, hi, ok := minFeasibleII(edges, d)
		wii, whi, wok := refMinFeasibleII(k, edges)
		if ii != wii || hi != whi || ok != wok {
			t.Fatalf("k=%d edges=%v: got (%d, %d, %v), oracle (%d, %d, %v)", k, edges, ii, hi, ok, wii, whi, wok)
		}
	})
}
