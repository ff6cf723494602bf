package vm

// The previous, map-based execution engine, kept verbatim (identifiers
// prefixed ref) as the oracle the allocation-free engine is checked
// against in engine_test.go: a map-keyed commit queue sorted every
// cycle, a map of last-issue cycles, a closure per operand read, a fresh
// machine image per run and a from-scratch sequential reference per
// trip.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// refRegCommit is one in-flight register write: the value lands in loc at a
// fixed cycle. issue orders same-location commits (a later-issued write
// architecturally wins and makes any slower earlier write stale); seq
// breaks remaining ties deterministically.
type refRegCommit struct {
	loc        emit.Loc
	val        uint64
	issue, seq int
}

type refMemCommit struct {
	addr int
	val  uint64
}

// refRunProgram interprets the emitted program on machine state derived
// from sem: per-cluster register files plus frame slots initialised to
// every renamed register's pre-loop value, and the same initial memory
// image the sequential executor starts from. Each cycle first applies
// the register and memory writebacks due (results commit their latency
// after issue, bus transfers their extra bus latency later), then issues
// the cycle's bundle — operands are read at issue, which is exactly the
// contract Schedule.Validate enforced with its latency checks. The
// semantics must have been bound with Bind (the final-state extraction
// needs the kernel's renaming and placements).
func refRunProgram(sem *Semantics, prog *emit.Program, mode Mode, trip int) (*State, error) {
	if sem.ek == nil {
		return nil, fmt.Errorf("vm: run: semantics not bound to a schedule (use Bind, not BindLoop)")
	}
	if prog == nil {
		return nil, fmt.Errorf("vm: run: nil program")
	}
	if sem.Loop != prog.Loop {
		return nil, fmt.Errorf("vm: run: program and semantics are for different loops")
	}
	if mode == ModeMVE && trip != prog.Trip {
		return nil, fmt.Errorf("vm: run: the mve plan executes exactly %d iterations, got trip %d", prog.Trip, trip)
	}
	if trip < 1 {
		return nil, fmt.Errorf("vm: run needs trip >= 1, got %d", trip)
	}

	m := prog.Machine
	regs := make([][]uint64, m.NumClusters())
	for ci := range regs {
		regs[ci] = make([]uint64, m.RegsPerCluster(ci))
		for idx, name := range prog.Names[ci] {
			regs[ci][idx] = sem.initReg(name.Reg)
		}
	}
	frame := make([]uint64, len(prog.Frame))
	for idx, fs := range prog.Frame {
		frame[idx] = sem.initReg(fs.Name.Reg)
	}
	mem := sem.refNewMemImage()

	readLoc := func(l emit.Loc) uint64 {
		if l.Frame {
			return frame[l.Index]
		}
		return regs[l.Cluster][l.Index]
	}
	writeLoc := func(l emit.Loc, v uint64) {
		if l.Frame {
			frame[l.Index] = v
		} else {
			regs[l.Cluster][l.Index] = v
		}
	}

	pendingR := map[int][]refRegCommit{}
	pendingW := map[int][]refMemCommit{}
	lastIssue := map[emit.Loc]int{}
	seq := 0

	// bundleAt maps a timeline cycle to the bundle issuing then and the
	// pass offset its kernel ops add to their base iteration; ok=false
	// past the last issue cycle.
	t0 := len(prog.Prologue)
	period := prog.Period
	kstart, passes := 0, prog.Passes
	if mode == ModePredicated {
		kstart, passes = prog.PredWindow(trip)
		if passes == 0 {
			return nil, fmt.Errorf("vm: run: predicated plan has no passes for trip %d", trip)
		}
	}
	issueSpan := passes * period
	if mode == ModeMVE {
		issueSpan = t0 + passes*period + len(prog.Epilogue)
	}
	bundleAt := func(c int) (b *emit.Bundle, iterOff int) {
		switch mode {
		case ModeMVE:
			switch {
			case c < t0:
				return &prog.Prologue[c], 0
			case c < t0+passes*period:
				return &prog.Kernel[(c-t0)%period], ((c - t0) / period) * prog.Unroll
			default:
				return &prog.Epilogue[c-t0-passes*period], 0
			}
		default:
			return &prog.Kernel[c%period], (kstart + c/period) * prog.Unroll
		}
	}

	for c := 0; c < issueSpan || len(pendingR) > 0 || len(pendingW) > 0; c++ {
		// Writeback first: a result with latency L committed at cycle c is
		// readable by an op issuing at c — the = in the scheduler's
		// issue(consumer) >= issue(producer) + L contract.
		if rcs, ok := pendingR[c]; ok {
			sort.Slice(rcs, func(a, b int) bool {
				if rcs[a].issue != rcs[b].issue {
					return rcs[a].issue < rcs[b].issue
				}
				return rcs[a].seq < rcs[b].seq
			})
			for _, rc := range rcs {
				if last, seen := lastIssue[rc.loc]; seen && rc.issue < last {
					continue // stale: a later-issued write already owns the location
				}
				lastIssue[rc.loc] = rc.issue
				writeLoc(rc.loc, rc.val)
			}
			delete(pendingR, c)
		}
		if wcs, ok := pendingW[c]; ok {
			for _, wc := range wcs {
				binary.LittleEndian.PutUint64(mem[wc.addr:], wc.val)
			}
			delete(pendingW, c)
		}
		if c >= issueSpan {
			continue
		}
		bundle, iterOff := bundleAt(c)
		for oi := range bundle.Ops {
			op := &bundle.Ops[oi]
			i := op.Iter + iterOff
			if i < 0 || i >= trip {
				if mode == ModePredicated {
					continue // predicate false: squash the instance
				}
				return nil, fmt.Errorf("vm: run: mve op %d at cycle %d executes iteration %d outside [0, %d)", op.ID, c, i, trip)
			}
			out, wAddr, wVal := sem.refEval(mem, op.ID, i, func(j int) uint64 {
				return readLoc(op.Srcs[j])
			})
			if wAddr >= 0 {
				wb := c + op.Latency
				pendingW[wb] = append(pendingW[wb], refMemCommit{addr: wAddr, val: wVal})
			}
			for _, d := range op.Defs {
				wb := c + op.Latency
				pendingR[wb] = append(pendingR[wb], refRegCommit{loc: d, val: out, issue: c, seq: seq})
				seq++
			}
			for _, x := range op.Xfers {
				wb := c + x.Delay
				pendingR[wb] = append(pendingR[wb], refRegCommit{loc: x.Dst, val: out, issue: c, seq: seq})
				seq++
			}
		}
	}

	st := &State{
		Mem: mem, RegFinal: map[ir.VReg]uint64{}, Trip: trip,
		Cycles:        issueSpan,
		ObservableLen: sem.ObservableLen(),
	}
	// Live-outs: each observable register's final value sits in the
	// renamed copy iteration trip-1 wrote, on the last defining site's
	// cluster.
	ek := sem.ek
	for v, site := range sem.refFinalSites() {
		c := ek.Copies[v]
		if c < 1 {
			c = 1
		}
		name := sched.RegCopy{Reg: v, Copy: ((trip-1)%c + c) % c}
		loc, ok := prog.LocOf(ek.Schedule.Placements[site].Cluster, name)
		if !ok {
			return nil, fmt.Errorf("vm: run: no location for live-out %s (site %d)", name, site)
		}
		st.RegFinal[v] = readLoc(loc)
	}
	return st, nil
}

// refRunSequential executes trip iterations of the loop the way the
// dependence graph defines dataflow, with no overlap: instructions in
// program order, one iteration after the next, each use reading the
// value its reaching definition produced dist iterations earlier (the
// register's initial value when that reaches before iteration 0). It is
// the reference semantics every pipelined execution is checked against.
func refRunSequential(sem *Semantics, trip int) (*State, error) {
	if trip < 1 {
		return nil, fmt.Errorf("vm: sequential run needs trip >= 1, got %d", trip)
	}
	n := sem.Loop.NumInstrs()
	mem := sem.refNewMemImage()
	h := sem.histLen
	// hist[id] is a ring of instruction id's last histLen results —
	// histLen exceeds every dependence distance, so a reaching value is
	// always still in the ring when its consumer reads it.
	back := make([]uint64, n*h)
	hist := make([][]uint64, n)
	for id := range hist {
		hist[id] = back[id*h : (id+1)*h]
	}
	for i := 0; i < trip; i++ {
		for id, in := range sem.Loop.Instrs {
			op := &sem.ops[id]
			srcVal := func(j int) uint64 {
				r := op.srcs[j]
				if r.site < 0 || int(r.dist) > i {
					return sem.initReg(in.Uses[j])
				}
				return hist[r.site][(i-int(r.dist))%h]
			}
			out, wAddr, wVal := sem.refEval(mem, id, i, srcVal)
			if wAddr >= 0 {
				binary.LittleEndian.PutUint64(mem[wAddr:], wVal)
			}
			hist[id][i%h] = out
		}
	}
	st := &State{
		Mem: mem, RegFinal: map[ir.VReg]uint64{}, Trip: trip,
		Cycles:        trip * n,
		ObservableLen: sem.ObservableLen(),
	}
	for v, site := range sem.refFinalSites() {
		st.RegFinal[v] = hist[site][(trip-1)%h]
	}
	return st, nil
}

// refVerifyProgram is Verify for callers that already emitted the program
// (the exec explainer, which also wants the listing).
func refVerifyProgram(ek *sched.ExpandedKernel, prog *emit.Program, opts Options) (*Report, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	sem, err := Bind(ek, seed)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Loop: prog.Loop.Name, Machine: prog.Machine.Name,
		II: prog.II, Unroll: prog.Unroll, Stages: prog.Stages, Trip: prog.Trip,
		MVEBundles: prog.MVEBundles(), PredBundles: prog.PredBundles(),
		FrameSlots: len(prog.Frame),
	}

	ref, err := refRunSequential(sem, prog.Trip)
	if err != nil {
		return nil, err
	}
	rep.SeqCycles = ref.Cycles

	mve, err := refRunProgram(sem, prog, ModeMVE, prog.Trip)
	if err != nil {
		return nil, err
	}
	rep.MVECycles = mve.Cycles
	rep.Trips = append(rep.Trips, prog.Trip)
	rep.Mismatches = append(rep.Mismatches, DiffStates("mve", mve, ref, len(ref.Mem))...)

	trips := opts.PredTrips
	if trips == nil {
		// Shorter than the pipeline fill (every op squashes at least
		// once) and one extra iteration past a pass boundary.
		trips = []int{prog.Stages, prog.Trip + 1}
	}
	trips = append([]int{prog.Trip}, trips...)
	seen := map[int]bool{}
	for _, trip := range trips {
		if trip < 1 || seen[trip] {
			continue
		}
		seen[trip] = true
		want := ref
		if trip != prog.Trip {
			if want, err = refRunSequential(sem, trip); err != nil {
				return nil, err
			}
		}
		got, err := refRunProgram(sem, prog, ModePredicated, trip)
		if err != nil {
			return nil, err
		}
		if trip != prog.Trip {
			rep.Trips = append(rep.Trips, trip)
		}
		rep.Mismatches = append(rep.Mismatches,
			DiffStates(fmt.Sprintf("pred@%d", trip), got, want, len(want.Mem))...)
	}
	return rep, nil
}

// refNewMemImage builds the initial memory: load regions filled with
// seed-derived words, store regions zeroed, every spill-slot group
// pre-set to the spilled register's initial value so reloads reaching
// before iteration 0 observe exactly what the sequential dataflow does.
func (sem *Semantics) refNewMemImage() []byte {
	mem := make([]byte, sem.MemLen())
	for li := 0; li < sem.NLoads; li++ {
		for w := 0; w < 64; w++ {
			v := splitmix64(sem.Seed ^ 0x8532_9e20_94c3_1f00 ^ uint64(li)<<32 ^ uint64(w))
			binary.LittleEndian.PutUint64(mem[li*regionSize+w*8:], v)
		}
	}
	for id, in := range sem.Loop.Instrs {
		if sem.ops[id].kind != opSpillStore {
			continue
		}
		init := sem.initReg(in.Uses[0])
		base := sem.slotAddr(sem.ops[id].memIdx, 0)
		for s := 0; s < sem.K; s++ {
			binary.LittleEndian.PutUint64(mem[base+s*8:], init)
		}
	}
	return mem
}

// refEval computes one instruction instance's result and memory effect.
// srcVal(j) supplies the value of use operand j; the caller owns where
// that value comes from (dataflow history for the sequential executor,
// architectural registers for the pipelined one). The returned memory
// write (addr >= 0) is the store the instance performs, which the caller
// applies with its own timing.
func (sem *Semantics) refEval(mem []byte, id, i int, srcVal func(j int) uint64) (out uint64, wAddr int, wVal uint64) {
	op := &sem.ops[id]
	wAddr = -1
	switch op.kind {
	case opALU:
		out = fold(op.token, uint64(i))
		for j := range op.srcs {
			out = fold(out, srcVal(j))
		}
	case opLoad:
		w := binary.LittleEndian.Uint64(mem[sem.loadAddr(op.memIdx, i, op.stride):])
		out = fold(fold(op.token, uint64(i)), w)
		for j := range op.srcs {
			out = fold(out, srcVal(j))
		}
	case opStore:
		out = fold(op.token, uint64(i))
		for j := range op.srcs {
			out = fold(out, srcVal(j))
		}
		wAddr, wVal = sem.storeAddr(op.memIdx, i, op.stride), out
	case opSpillStore:
		out = srcVal(0)
		wAddr, wVal = sem.slotAddr(op.memIdx, i%sem.K), out
	case opSpillReload:
		s := ((i-op.pairDist)%sem.K + sem.K) % sem.K
		out = binary.LittleEndian.Uint64(mem[sem.slotAddr(op.memIdx, s):])
	case opLiveInReload:
		out = sem.initReg(op.spillOf)
	}
	return out, wAddr, wVal
}

// refFinalSites maps every observable register — one defined by at least
// one non-spill instruction — to its last defining site in program
// order: the definition whose iteration trip-1 value is the register's
// live-out. Spill-reload defs are fresh registers private to one
// backend's spill choices and are deliberately excluded.
func (sem *Semantics) refFinalSites() map[ir.VReg]int {
	sites := map[ir.VReg]int{}
	for id, in := range sem.Loop.Instrs {
		if in.Op == ir.OpSpillReload || in.Op == ir.OpSpillStore {
			continue
		}
		for _, d := range in.Defs {
			if last, ok := sites[d]; !ok || id > last {
				sites[d] = id
			}
		}
	}
	return sites
}
