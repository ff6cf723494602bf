package vm

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/paper-repo-growth/mirs/pkg/emit"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// DefaultSeed seeds the oracle when Options.Seed is zero. Any seed
// works; fixing one keeps corpus artifacts byte-identical across runs.
const DefaultSeed = 0x6d697273 // "mirs"

// Options configures a differential verification.
type Options struct {
	// Seed drives the operation semantics; 0 means DefaultSeed.
	Seed uint64
	// PredTrips are extra trip counts to run the predicated plan at (the
	// MVE plan's trip is always covered). Default: one shorter than the
	// pipeline fill and one straddling an extra kernel pass, which
	// exercises squashing at both ends.
	PredTrips []int
}

// Report is the outcome of differentially executing one compilation.
type Report struct {
	// Loop and Machine identify the compilation.
	Loop, Machine string
	// II, Unroll, Stages and Trip echo the emitted program's shape.
	II, Unroll, Stages, Trip int
	// MVEBundles and PredBundles are the code sizes of the two plans;
	// FrameSlots counts register-allocation overflow slots.
	MVEBundles, PredBundles, FrameSlots int
	// SeqCycles is the naive single-issue sequential cost of Trip
	// iterations; MVECycles the pipelined issue span. Their ratio is the
	// realised speedup the schedule delivers.
	SeqCycles, MVECycles int
	// Trips lists every trip count executed (MVE once, predicated all).
	Trips []int
	// Mismatches are the deterministic differences found; empty means
	// every pipelined execution matched the sequential reference bit for
	// bit (final memory, live-out registers, iteration counts).
	Mismatches []string
}

// OK reports whether every execution matched the reference.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// String renders a one-line digest, with mismatch lines appended when
// verification failed.
func (r *Report) String() string {
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d mismatches)", len(r.Mismatches))
	}
	s := fmt.Sprintf("exec %s on %s: II=%d unroll=%d stages=%d trip=%d seq=%d cyc mve=%d cyc (%.2fx) %s",
		r.Loop, r.Machine, r.II, r.Unroll, r.Stages, r.Trip,
		r.SeqCycles, r.MVECycles, float64(r.SeqCycles)/float64(max(1, r.MVECycles)), status)
	if !r.OK() {
		s += "\n  " + strings.Join(r.Mismatches, "\n  ")
	}
	return s
}

// Verify closes the loop on one compilation: it emits the expanded
// kernel to architectural bundles, binds the seeded operation semantics,
// and executes the sequential reference against the pipelined program —
// the MVE plan at its fixed trip, and the predicated plan at that trip
// plus the option's extra trips. Structural failures (emission, binding,
// interpretation) return an error; semantic differences return a Report
// whose Mismatches list them deterministically.
func Verify(ek *sched.ExpandedKernel, opts Options) (*Report, error) {
	prog, err := emit.Emit(ek)
	if err != nil {
		return nil, err
	}
	return VerifyProgram(ek, prog, opts)
}

// VerifyProgram is Verify for callers that already emitted the program
// (the exec explainer, which also wants the listing). One machine image
// serves every pipelined run, and one sequential run, snapshotted at
// each requested trip in increasing order, serves as every reference.
func VerifyProgram(ek *sched.ExpandedKernel, prog *emit.Program, opts Options) (*Report, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	sem, err := Bind(ek, seed)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(sem, prog)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Loop: prog.Loop.Name, Machine: prog.Machine.Name,
		II: prog.II, Unroll: prog.Unroll, Stages: prog.Stages, Trip: prog.Trip,
		MVEBundles: prog.MVEBundles(), PredBundles: prog.PredBundles(),
		FrameSlots: len(prog.Frame),
	}

	extra := opts.PredTrips
	if extra == nil {
		// Shorter than the pipeline fill (every op squashes at least
		// once) and one extra iteration past a pass boundary.
		extra = []int{prog.Stages, prog.Trip + 1}
	}
	// trips are the predicated runs in report order: the MVE trip first,
	// then each valid extra trip once.
	trips := make([]int, 1, 1+len(extra))
	trips[0] = prog.Trip
	for _, t := range extra {
		if t >= 1 && !slices.Contains(trips, t) {
			trips = append(trips, t)
		}
	}
	sorted := slices.Clone(trips)
	slices.Sort(sorted)
	refs := make([]*State, len(sorted))
	seq := newSeqRun(sem)
	for k, t := range sorted {
		seq.advance(t)
		refs[k] = seq.snapshot()
	}
	ref := func(trip int) *State {
		k, _ := slices.BinarySearch(sorted, trip)
		return refs[k]
	}

	want := ref(prog.Trip)
	rep.SeqCycles = want.Cycles
	if err := r.run(ModeMVE, prog.Trip); err != nil {
		return nil, err
	}
	rep.MVECycles = r.st.Cycles
	rep.Trips = trips
	rep.Mismatches = diff(rep.Mismatches, "mve", 0, &r.st, want)
	for _, trip := range trips {
		if err := r.run(ModePredicated, trip); err != nil {
			return nil, err
		}
		rep.Mismatches = diff(rep.Mismatches, "pred", trip, &r.st, ref(trip))
	}
	return rep, nil
}

// diff appends DiffStates's lines for got against want over want's whole
// image, tagged plan or plan@trip when trip > 0. It skips building the
// tag and lines when the states agree.
func diff(dst []string, plan string, trip int, got, want *State) []string {
	if same(got, want) {
		return dst
	}
	if trip > 0 {
		plan += "@" + strconv.Itoa(trip)
	}
	return append(dst, DiffStates(plan, got, want, len(want.Mem))...)
}

// same reports whether got and want agree on everything DiffStates
// compares over want's whole image; when it does, DiffStates returns no
// lines.
func same(got, want *State) bool {
	if got.Trip != want.Trip || len(got.Mem) < len(want.Mem) {
		return false
	}
	words := len(want.Mem) &^ 7
	if !bytes.Equal(got.Mem[:words], want.Mem[:words]) {
		return false
	}
	for v, w := range want.RegFinal {
		if g, ok := got.RegFinal[v]; !ok || g != w {
			return false
		}
	}
	return true
}
