package vm

import (
	"encoding/binary"
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// Mode selects which of the emitted program's execution plans the
// interpreter runs.
type Mode int

const (
	// ModeMVE runs prologue bundles, Passes kernel passes and epilogue
	// bundles — the paper's modulo-variable-expanded code shape. The trip
	// count is fixed by the plan (Program.Trip).
	ModeMVE Mode = iota
	// ModePredicated runs only the kernel bundles, for enough leading and
	// trailing passes to cover any trip count, squashing every operation
	// whose iteration falls outside [0, trip).
	ModePredicated
)

func (m Mode) String() string {
	if m == ModePredicated {
		return "predicated"
	}
	return "mve"
}

// regCommit is one in-flight register write: val lands in flat location
// loc (see runner.flat) at a fixed cycle. issue orders same-location
// commits (a later-issued write architecturally wins and makes any
// slower earlier write stale); seq numbers commits in append order.
type regCommit struct {
	loc        int
	val        uint64
	issue, seq int
}

type memCommit struct {
	addr int
	val  uint64
}

// slot holds the writebacks due in one cycle.
//
// Commit order: cycles issue in increasing order and every commit is
// appended with a run-wide, strictly increasing seq, so each slot's regs
// are already sorted by (issue, seq) — the order writeback applies them
// in, which is what lets a later-issued write own its location over a
// slower earlier one. No per-cycle sort is needed.
type slot struct {
	regs []regCommit
	mems []memCommit
}

// runner is the pipelined machine image of one verification: the
// register files, frame, memory, commit ring and last-issue table are
// allocated once by newRunner and reset by each run, so executing a
// cycle or an operation allocates nothing.
type runner struct {
	sem  *Semantics
	prog *emit.Program
	// vals holds every architectural location: the cluster register
	// files back to back (cluster ci's register k at base[ci]+k), then
	// the frame slots from base[NumClusters]. init is the pre-loop image.
	vals, init []uint64
	base       []int
	// last is the issue cycle of the write that owns each location, -1
	// before the first.
	last []int
	mem  []byte
	// ring[c%len(ring)] holds cycle c's writebacks. A commit issued at c
	// lands d cycles later, 1 <= d <= maxDelay. Cycle c drains its slot
	// before it issues, so maxDelay slots suffice: the commit's slot was
	// last drained at c+d-maxDelay <= c and is drained next at c+d. A
	// smaller ring commits early; a delay below 1 would commit a whole
	// revolution late, which is why newRunner rejects it.
	ring []slot
	// inflight counts the commits queued in ring; seq numbers them.
	inflight, seq int
	src           []uint64
	// mode, trip, kstart and passes are the current run's plan; span is
	// its issue span in cycles.
	mode                       Mode
	trip, kstart, passes, span int
	// st is the last run's outcome; Mem aliases mem.
	st State
}

// newRunner checks prog against sem and allocates its machine image.
// Every result must commit at least one cycle after issue and every bus
// transfer no earlier than its result (Schedule.Validate and
// machine.Validate guarantee both for emitted code), and every location
// must exist on the machine.
func newRunner(sem *Semantics, prog *emit.Program) (*runner, error) {
	if sem.ek == nil {
		return nil, fmt.Errorf("vm: run: semantics not bound to a schedule (use Bind, not BindLoop)")
	}
	if prog == nil {
		return nil, fmt.Errorf("vm: run: nil program")
	}
	if sem.Loop != prog.Loop {
		return nil, fmt.Errorf("vm: run: program and semantics are for different loops")
	}
	m := prog.Machine
	nc := m.NumClusters()
	r := &runner{sem: sem, prog: prog, base: make([]int, nc+1), src: make([]uint64, sem.maxSrcs)}
	for ci := 0; ci < nc; ci++ {
		r.base[ci+1] = r.base[ci] + m.RegsPerCluster(ci)
	}
	n := r.base[nc] + len(prog.Frame)
	r.vals, r.init, r.last = make([]uint64, n), make([]uint64, n), make([]int, n)
	for ci, names := range prog.Names {
		if ci >= nc || len(names) > m.RegsPerCluster(ci) {
			return nil, fmt.Errorf("vm: run: register allocation of cluster %d does not fit machine %q", ci, m.Name)
		}
		for idx, name := range names {
			r.init[r.base[ci]+idx] = sem.initReg(name.Reg)
		}
	}
	for idx, fs := range prog.Frame {
		r.init[r.base[nc]+idx] = sem.initReg(fs.Name.Reg)
	}

	maxDelay := 1
	for _, seg := range [][]emit.Bundle{prog.Prologue, prog.Kernel, prog.Epilogue} {
		for bi := range seg {
			for oi := range seg[bi].Ops {
				op := &seg[bi].Ops[oi]
				if err := r.checkOp(op); err != nil {
					return nil, err
				}
				maxDelay = max(maxDelay, op.Latency)
				for _, x := range op.Xfers {
					maxDelay = max(maxDelay, x.Delay)
				}
			}
		}
	}
	r.ring = make([]slot, maxDelay)
	r.mem = make([]byte, len(sem.mem0))
	r.st.RegFinal = make(map[ir.VReg]uint64, len(sem.final))
	return r, nil
}

// checkOp rejects an operation the runner cannot execute faithfully.
func (r *runner) checkOp(op *emit.Op) error {
	if op.ID < 0 || op.ID >= len(r.sem.ops) {
		return fmt.Errorf("vm: run: op %d is not an instruction of loop %q", op.ID, r.sem.Loop.Name)
	}
	if op.Latency < 1 {
		return fmt.Errorf("vm: run: op %d has latency %d; results commit at least one cycle after issue", op.ID, op.Latency)
	}
	if len(op.Srcs) < len(r.sem.ops[op.ID].srcs) {
		return fmt.Errorf("vm: run: op %d has %d source locations, instruction reads %d", op.ID, len(op.Srcs), len(r.sem.ops[op.ID].srcs))
	}
	for _, x := range op.Xfers {
		if x.Delay < op.Latency {
			return fmt.Errorf("vm: run: op %d transfers to %s after %d cycles, before its result is ready (latency %d)", op.ID, x.Dst, x.Delay, op.Latency)
		}
		if !r.valid(x.Dst) {
			return fmt.Errorf("vm: run: op %d transfers to %s, not a location of the machine", op.ID, x.Dst)
		}
	}
	for _, locs := range [][]emit.Loc{op.Defs, op.Srcs} {
		for _, l := range locs {
			if !r.valid(l) {
				return fmt.Errorf("vm: run: op %d uses %s, not a location of the machine", op.ID, l)
			}
		}
	}
	return nil
}

func (r *runner) valid(l emit.Loc) bool {
	nc := len(r.base) - 1
	if l.Frame {
		return l.Index >= 0 && l.Index < len(r.prog.Frame)
	}
	return l.Cluster >= 0 && l.Cluster < nc && l.Index >= 0 && l.Index < r.base[l.Cluster+1]-r.base[l.Cluster]
}

// flat is location l's index in vals and last.
func (r *runner) flat(l emit.Loc) int {
	if l.Frame {
		return r.base[len(r.base)-1] + l.Index
	}
	return r.base[l.Cluster] + l.Index
}

// RunProgram interprets the emitted program on machine state derived
// from sem: per-cluster register files plus frame slots initialised to
// every renamed register's pre-loop value, and the same initial memory
// image the sequential executor starts from. Each cycle first applies
// the register and memory writebacks due (results commit their latency
// after issue, bus transfers their extra bus latency later), then issues
// the cycle's bundle — operands are read at issue, which is exactly the
// contract Schedule.Validate enforced with its latency checks. The
// semantics must have been bound with Bind (the final-state extraction
// needs the kernel's renaming and placements), and every op latency and
// bus-transfer delay must be at least 1.
func RunProgram(sem *Semantics, prog *emit.Program, mode Mode, trip int) (*State, error) {
	r, err := newRunner(sem, prog)
	if err != nil {
		return nil, err
	}
	if err := r.run(mode, trip); err != nil {
		return nil, err
	}
	return &r.st, nil // the runner is dropped, so its image is the caller's
}

// run executes one plan on the reset machine image and leaves the
// outcome in r.st.
func (r *runner) run(mode Mode, trip int) error {
	if err := r.start(mode, trip); err != nil {
		return err
	}
	for c := 0; c < r.span || r.inflight > 0; c++ {
		if err := r.cycle(c); err != nil {
			return err
		}
	}
	return r.finish()
}

// start checks the plan, sizes its issue span and resets the image.
func (r *runner) start(mode Mode, trip int) error {
	prog := r.prog
	if mode == ModeMVE && trip != prog.Trip {
		return fmt.Errorf("vm: run: the mve plan executes exactly %d iterations, got trip %d", prog.Trip, trip)
	}
	if trip < 1 {
		return fmt.Errorf("vm: run needs trip >= 1, got %d", trip)
	}
	r.mode, r.trip = mode, trip
	r.kstart, r.passes = 0, prog.Passes
	r.span = len(prog.Prologue) + r.passes*prog.Period + len(prog.Epilogue)
	if mode == ModePredicated {
		r.kstart, r.passes = prog.PredWindow(trip)
		if r.passes == 0 {
			return fmt.Errorf("vm: run: predicated plan has no passes for trip %d", trip)
		}
		r.span = r.passes * prog.Period
	}

	copy(r.vals, r.init)
	copy(r.mem, r.sem.mem0)
	for i := range r.last {
		r.last[i] = -1
	}
	for i := range r.ring {
		r.ring[i].regs, r.ring[i].mems = r.ring[i].regs[:0], r.ring[i].mems[:0]
	}
	r.inflight, r.seq = 0, 0
	return nil
}

// cycle applies cycle c's writebacks, then issues its bundle.
func (r *runner) cycle(c int) error {
	// Writeback first: a result with latency L committed at cycle c is
	// readable by an op issuing at c — the = in the scheduler's
	// issue(consumer) >= issue(producer) + L contract.
	r.writeback(c)
	if c >= r.span {
		return nil
	}
	// The bundle issuing at c, and the pass offset its kernel ops add to
	// their base iteration.
	prog := r.prog
	t0, period := len(prog.Prologue), prog.Period
	var bundle *emit.Bundle
	iterOff := 0
	switch {
	case r.mode == ModePredicated:
		bundle, iterOff = &prog.Kernel[c%period], (r.kstart+c/period)*prog.Unroll
	case c < t0:
		bundle = &prog.Prologue[c]
	case c < t0+r.passes*period:
		bundle, iterOff = &prog.Kernel[(c-t0)%period], ((c-t0)/period)*prog.Unroll
	default:
		bundle = &prog.Epilogue[c-t0-r.passes*period]
	}
	for oi := range bundle.Ops {
		op := &bundle.Ops[oi]
		i := op.Iter + iterOff
		if i < 0 || i >= r.trip {
			if r.mode == ModePredicated {
				continue // predicate false: squash the instance
			}
			return fmt.Errorf("vm: run: mve op %d at cycle %d executes iteration %d outside [0, %d)", op.ID, c, i, r.trip)
		}
		r.issue(op, c, i)
	}
	return nil
}

// finish records the drained run's outcome in r.st. Live-outs: each
// observable register's final value sits in the renamed copy iteration
// trip-1 wrote, on the last defining site's cluster.
func (r *runner) finish() error {
	sem, ek := r.sem, r.sem.ek
	r.st.Mem, r.st.Trip, r.st.Cycles, r.st.ObservableLen = r.mem, r.trip, r.span, sem.ObservableLen()
	for _, f := range sem.final {
		c := ek.Copies[f.reg]
		if c < 1 {
			c = 1
		}
		name := sched.RegCopy{Reg: f.reg, Copy: ((r.trip-1)%c + c) % c}
		loc, ok := r.prog.LocOf(ek.Schedule.Placements[f.site].Cluster, name)
		if !ok {
			return fmt.Errorf("vm: run: no location for live-out %s (site %d)", name, f.site)
		}
		r.st.RegFinal[f.reg] = r.vals[r.flat(loc)]
	}
	return nil
}

// writeback applies cycle c's commits in (issue, seq) order, skipping a
// register write a later-issued write already owns.
func (r *runner) writeback(c int) {
	s := &r.ring[c%len(r.ring)]
	for _, rc := range s.regs {
		if rc.issue < r.last[rc.loc] {
			continue // stale: a later-issued write already owns the location
		}
		r.last[rc.loc] = rc.issue
		r.vals[rc.loc] = rc.val
	}
	for _, wc := range s.mems {
		binary.LittleEndian.PutUint64(r.mem[wc.addr:], wc.val)
	}
	r.inflight -= len(s.regs) + len(s.mems)
	s.regs, s.mems = s.regs[:0], s.mems[:0]
}

// issue executes iteration i's instance of op at cycle c: operands are
// read now, results and the store queue for their writeback cycles.
func (r *runner) issue(op *emit.Op, c, i int) {
	src := r.src[:len(r.sem.ops[op.ID].srcs)]
	for j := range src {
		src[j] = r.vals[r.flat(op.Srcs[j])]
	}
	out, wAddr, wVal := r.sem.eval(r.mem, op.ID, i, src)
	if wAddr >= 0 {
		s := &r.ring[(c+op.Latency)%len(r.ring)]
		s.mems = append(s.mems, memCommit{addr: wAddr, val: wVal})
		r.inflight++
	}
	for _, d := range op.Defs {
		r.commit(c+op.Latency, d, out, c)
	}
	for _, x := range op.Xfers {
		r.commit(c+x.Delay, x.Dst, out, c)
	}
}

func (r *runner) commit(at int, l emit.Loc, v uint64, issue int) {
	s := &r.ring[at%len(r.ring)]
	s.regs = append(s.regs, regCommit{loc: r.flat(l), val: v, issue: issue, seq: r.seq})
	r.seq++
	r.inflight++
}
