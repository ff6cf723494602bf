package ir_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/mirs"
	"github.com/paper-repo-growth/mirs/pkg/sched"
	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// This file checks the spill splice differentially: after every spill
// of a chain, the spliced loop and graph must equal what rebuilding
// produces — the rewritten loop cloned instruction by instruction, a
// fresh ir.Build of it under the source graph's options, then AddEdge of
// the store→reload edges and of the source's memory edges.

// rebuildSpill is the oracle: the rebuild the splice replaces. defID -1
// spills the live-in reg.
func rebuildSpill(t *testing.T, l *ir.Loop, m *machine.Machine, g *ir.Graph, defID int, reg ir.VReg) (*ir.Loop, *ir.Graph) {
	t.Helper()
	var consumers, dists []int
	if defID >= 0 {
		for _, e := range g.Succs(defID) {
			if e.Kind == ir.DepTrue && e.Reg == reg {
				consumers, dists = append(consumers, e.To), append(dists, e.Distance)
			}
		}
	} else {
		for id, in := range l.Instrs {
			for _, u := range in.Uses {
				if u == reg {
					consumers = append(consumers, id)
					break
				}
			}
		}
	}
	nextReg := ir.VReg(0)
	for _, v := range l.VRegs() {
		nextReg = v + 1
	}
	out := &ir.Loop{Name: l.Name}
	emit := func(in *ir.Instruction) int {
		in.ID = len(out.Instrs)
		out.Instrs = append(out.Instrs, in)
		return in.ID
	}
	oldToNew := make([]int, l.NumInstrs())
	var reloads []int
	storeID := -1
	ci := 0
	for old, in := range l.Instrs {
		clone := *in
		if ci < len(consumers) && consumers[ci] == old {
			r := nextReg
			nextReg++
			reloads = append(reloads, emit(&ir.Instruction{Op: ir.OpSpillReload, Class: machine.ClassMem, Defs: []ir.VReg{r}, SpillOf: reg}))
			clone.Uses = append([]ir.VReg(nil), in.Uses...)
			for i, u := range clone.Uses {
				if u == reg {
					clone.Uses[i] = r
				}
			}
			if _, carried := in.CarriedUses[reg]; carried {
				clone.CarriedUses = map[ir.VReg]int{}
				for v, d := range in.CarriedUses {
					if v != reg {
						clone.CarriedUses[v] = d
					}
				}
				if len(clone.CarriedUses) == 0 {
					clone.CarriedUses = nil
				}
			}
			ci++
		}
		oldToNew[old] = emit(&clone)
		if old == defID {
			storeID = emit(&ir.Instruction{Op: ir.OpSpillStore, Class: machine.ClassMem, Uses: []ir.VReg{reg}})
		}
	}
	opts := g.Options()
	ng, err := ir.Build(out, m, &opts)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if defID >= 0 {
		for i, rid := range reloads {
			if err := ng.AddEdge(ir.Edge{From: storeID, To: rid, Kind: ir.DepMem, Distance: dists[i], Latency: m.Latency(machine.ClassMem)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range g.Edges {
		if e.Kind == ir.DepMem {
			e.From, e.To = oldToNew[e.From], oldToNew[e.To]
			if err := ng.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out, ng
}

// spillChecked materialises one spill and demands it equal the rebuild.
func spillChecked(t *testing.T, l *ir.Loop, m *machine.Machine, g *ir.Graph, defID int, reg ir.VReg) *ir.Spill {
	t.Helper()
	wantLoop, want := rebuildSpill(t, l, m, g, defID, reg)
	var sp *ir.Spill
	var err error
	if defID >= 0 {
		sp, err = ir.MaterializeSpill(l, m, g, defID, reg)
	} else {
		sp, err = ir.MaterializeLiveInSpill(l, m, g, reg)
	}
	if err != nil {
		t.Fatalf("%s on %s: spill of %s (def %d): %v", l.Name, m.Name, reg, defID, err)
	}
	what := fmt.Sprintf("%s on %s: spill of %s (def %d)", l.Name, m.Name, reg, defID)
	if !reflect.DeepEqual(sp.Loop.Instrs, wantLoop.Instrs) {
		t.Fatalf("%s: spliced instructions differ from the rebuild:\n got %v\nwant %v", what, sp.Loop.Instrs, wantLoop.Instrs)
	}
	if !reflect.DeepEqual(sp.Graph.Edges, want.Edges) {
		t.Fatalf("%s: spliced edges differ from the rebuild:\n got %v\nwant %v", what, sp.Graph.Edges, want.Edges)
	}
	if sp.Graph.NumNodes() != want.NumNodes() || sp.Graph.Options() != want.Options() {
		t.Fatalf("%s: %d nodes, options %+v; want %d, %+v", what,
			sp.Graph.NumNodes(), sp.Graph.Options(), want.NumNodes(), want.Options())
	}
	for id := 0; id < want.NumNodes(); id++ {
		if !reflect.DeepEqual(sp.Graph.Succs(id), want.Succs(id)) || !reflect.DeepEqual(sp.Graph.Preds(id), want.Preds(id)) {
			t.Fatalf("%s: adjacency of node %d differs from the rebuild", what, id)
		}
	}
	return sp
}

// spillCandidates lists every legal spill of the current loop: each
// definition with at least one true consumer, then each live-in
// (defID -1), in ID / register order.
func spillCandidates(l *ir.Loop, g *ir.Graph) (ids []int, regs []ir.VReg) {
	defined := map[ir.VReg]bool{}
	for id, in := range l.Instrs {
		for _, d := range in.Defs {
			defined[d] = true
			for _, e := range g.Succs(id) {
				if e.Kind == ir.DepTrue && e.Reg == d {
					ids, regs = append(ids, id), append(regs, d)
					break
				}
			}
		}
	}
	for _, v := range l.VRegs() {
		if !defined[v] {
			ids, regs = append(ids, -1), append(regs, v)
		}
	}
	return ids, regs
}

// randomChain applies up to max random spills, releasing each superseded
// spill as MIRS does so recycled storage is exercised too.
func randomChain(t *testing.T, l *ir.Loop, m *machine.Machine, g *ir.Graph, rng *rand.Rand, max int) {
	t.Helper()
	var prev *ir.Spill
	for i := 0; i < max; i++ {
		ids, regs := spillCandidates(l, g)
		if len(ids) == 0 {
			return
		}
		k := rng.Intn(len(ids))
		sp := spillChecked(t, l, m, g, ids[k], regs[k])
		if prev != nil {
			prev.Release()
		}
		l, g, prev = sp.Loop, sp.Graph, sp
	}
}

// replayVictims schedules l with MIRS under a flight recorder and
// replays every spill MIRS materialised — each candidate II restarts
// from the source loop — through spillChecked. It returns the number of
// spills replayed.
func replayVictims(t *testing.T, l *ir.Loop, m *machine.Machine) int {
	t.Helper()
	g, err := ir.Build(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{}
	if _, err := mirs.New().Schedule(&sched.Request{Loop: l, Machine: m, Graph: g, Recorder: buf}); err != nil {
		t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
	}
	cl, cg := l, g
	var prev *ir.Spill
	spills := 0
	for _, ev := range buf.Events() {
		switch ev.Kind {
		case trace.KindIIStart:
			cl, cg, prev = l, g, nil
		case trace.KindSpill:
			sp := spillChecked(t, cl, m, cg, int(ev.Op), ir.VReg(ev.Reg))
			if prev != nil {
				prev.Release()
			}
			cl, cg, prev = sp.Loop, sp.Graph, sp
			spills++
		}
	}
	return spills
}

func spliceMachines() []*machine.Machine {
	return []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()}
}

// spliceCorpus is a generated population — one loop per knob corner —
// plus a second loop per corner from another seed.
func spliceCorpus() []*ir.Loop {
	loops := gen.Corpus(1, len(gen.Corners()))
	for _, k := range gen.Corners() {
		loops = append(loops, gen.CornerCorpus(7, 1, k)...)
	}
	return loops
}

func TestSpliceMatchesRebuildOnMIRSVictims(t *testing.T) {
	replayed := 0
	for _, m := range spliceMachines() {
		for _, l := range spliceCorpus() {
			replayed += replayVictims(t, l, m)
		}
	}
	if replayed == 0 {
		t.Fatal("MIRS spilled nothing: the victim replay checked no splice")
	}
	t.Logf("%d MIRS spills replayed", replayed)
}

func TestSpliceMatchesRebuildOnRandomChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range spliceMachines() {
		for _, l := range spliceCorpus() {
			g, err := ir.Build(l, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			// MIRS's default per-II spill cap.
			randomChain(t, l, m, g, rng, 2*l.NumInstrs())
		}
	}
}

// TestSpillKeepsBuildOptions pins that a spill derives its graph under
// the options its source graph was built with: a RenameCopies graph
// stays relaxed instead of silently turning strict.
func TestSpillKeepsBuildOptions(t *testing.T) {
	m := machine.Tight()
	l := ir.LongChain()
	opts := &ir.BuildOptions{RenameCopies: 3}
	g, err := ir.Build(l, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids, regs := spillCandidates(l, g)
	sp, err := ir.MaterializeSpill(l, m, g, ids[0], regs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Build(sp.Loop, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	var nonMem []ir.Edge
	for _, e := range sp.Graph.Edges {
		if e.Kind != ir.DepMem {
			nonMem = append(nonMem, e)
		}
	}
	if !reflect.DeepEqual(nonMem, want.Edges) {
		t.Errorf("spilled RenameCopies=3 graph differs from ir.Build(spilled, m, RenameCopies=3):\n got %v\nwant %v", nonMem, want.Edges)
	}
	if got := sp.Graph.Options().RenameCopies; got != 3 {
		t.Errorf("spilled graph has RenameCopies %d, want 3", got)
	}
	spillChecked(t, l, m, g, ids[0], regs[0])
}

// spillCase decodes fuzz bytes into a loop, its build options, memory
// edges to add before spilling, and the spill picks of a chain. Layout:
// byte 0 sizes the body (2..10 instructions), byte 1 picks the options,
// then four bytes per instruction (class and def-count flags, defs,
// uses, carried-use flag), one byte counting memory edges (0..2) and
// four per edge, and the rest select spill candidates. Reads past the
// end yield zero. Registers 0..4 may be defined (so multi-def registers
// are common); 5..7 are only ever read — live-ins.
func spillCase(data []byte) (*ir.Loop, ir.BuildOptions, []ir.Edge, []byte) {
	pos := 0
	next := func() int {
		b := 0
		if pos < len(data) {
			b = int(data[pos])
		}
		pos++
		return b
	}
	n := 2 + next()%9
	o := next()
	opts := ir.BuildOptions{RenameCopies: 1 + o%3, AntiLatency: (o / 3) % 2, OutputLatency: (o / 6) % 2}
	classes := []machine.OpClass{machine.ClassALU, machine.ClassMul, machine.ClassMem}
	l := &ir.Loop{Name: "fuzz"}
	for i := 0; i < n; i++ {
		c, d, u, x := next(), next(), next(), next()
		in := &ir.Instruction{ID: i, Op: "op", Class: classes[c%3]}
		if c&4 == 0 {
			in.Defs = []ir.VReg{ir.VReg(d % 5)}
			if c&8 != 0 { // possibly the same register twice
				in.Defs = append(in.Defs, ir.VReg((d/5)%5))
			}
		}
		in.Uses = []ir.VReg{ir.VReg(u % 8)}
		if u&0x40 != 0 {
			in.Uses = append(in.Uses, ir.VReg((u/8)%8))
		}
		if x%4 == 0 {
			in.CarriedUses = map[ir.VReg]int{in.Uses[0]: 1 + (x/4)%3}
		}
		l.Instrs = append(l.Instrs, in)
	}
	var mem []ir.Edge
	for k := next() % 3; k > 0; k-- {
		e := ir.Edge{From: next() % n, To: next() % n, Kind: ir.DepMem, Distance: next() % 3, Latency: next() % 3}
		if e.From == e.To && e.Distance == 0 {
			e.Distance = 1
		}
		mem = append(mem, e)
	}
	var picks []byte
	if pos < len(data) {
		picks = data[pos:]
	}
	return l, opts, mem, picks
}

// FuzzSpillEdit drives random loops, options, memory edges and spill
// chains through the splice and checks every step against the rebuild.
// The committed seeds (testdata/fuzz/FuzzSpillEdit) cover
// self-recurrences, multi-def registers, carried-use consumers,
// pre-existing memory edges and an instruction naming one register
// twice among its definitions.
func FuzzSpillEdit(f *testing.F) {
	machines := []*machine.Machine{machine.Unified(), machine.Tight()}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, opts, mem, picks := spillCase(data)
		if len(picks) > 12 {
			picks = picks[:12]
		}
		for _, m := range machines {
			g, err := ir.Build(l, m, &opts)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for _, e := range mem {
				if err := g.AddEdge(e); err != nil {
					t.Fatalf("add %+v: %v", e, err)
				}
			}
			cl, cg := l, g
			var prev *ir.Spill
			for _, p := range picks {
				ids, regs := spillCandidates(cl, cg)
				if len(ids) == 0 {
					break
				}
				k := int(p) % len(ids)
				sp := spillChecked(t, cl, m, cg, ids[k], regs[k])
				if prev != nil {
					prev.Release()
				}
				cl, cg, prev = sp.Loop, sp.Graph, sp
			}
		}
	})
}

// TestSpillEditSeedsCover pins what the committed FuzzSpillEdit seeds are
// for: between them, their first spill hits a self-recurrence, a
// multi-def register, a carried-use consumer, and a graph with memory
// edges to carry over.
func TestSpillEditSeedsCover(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSpillEdit", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzSpillEdit seeds: %v", err)
	}
	covered := map[string]bool{}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		l, opts, mem, picks := spillCase([]byte(data))
		g, err := ir.Build(l, machine.Unified(), &opts)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		ids, regs := spillCandidates(l, g)
		if len(picks) == 0 || len(ids) == 0 {
			t.Fatalf("%s: no spill to make", file)
		}
		id, reg := ids[int(picks[0])%len(ids)], regs[int(picks[0])%len(ids)]
		if len(mem) > 0 {
			covered["memory edges"] = true
		}
		sites := 0
		for _, in := range l.Instrs {
			for _, d := range in.Defs {
				if d == reg {
					sites++
				}
			}
		}
		if sites > 1 {
			covered["multi-def register"] = true
		}
		if id < 0 {
			continue
		}
		for _, e := range g.Succs(id) {
			if e.Kind != ir.DepTrue || e.Reg != reg {
				continue
			}
			if e.To == id {
				covered["self-recurrence"] = true
			}
			if _, ok := l.Instrs[e.To].CarriedUses[reg]; ok {
				covered["carried-use consumer"] = true
			}
		}
	}
	for _, want := range []string{"self-recurrence", "multi-def register", "carried-use consumer", "memory edges"} {
		if !covered[want] {
			t.Errorf("no FuzzSpillEdit seed's first spill covers a %s", want)
		}
	}
}
