// Command perfbench is the repository benchmark. It compiles one of three
// generated workloads through the full pipeline (graph build, MII,
// scheduling, pressure analysis, expansion, emission and differential
// execution) in a single process with one worker, and prints every metric
// by name and unit, with the result JSON as the last line:
//
//	go run . --workload fit-exec --seed 1 --seconds 30 --trace 0
//
// --trace 0 times every compilation through internal/core and prints the
// end-to-end metrics. --trace 1 spends half the budget on the same
// untraced compilations and then replays them layer by layer with a
// search recorder attached, printing the per-layer metrics; every replay
// must reproduce core's result exactly. Timings are CPU time; see main.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/paper-repo-growth/mirs/pkg/trace"
)

func main() {
	// One worker and one P: the compilation and the garbage collection
	// it causes share one CPU, so the process's CPU time is the time
	// each compilation costs. That is what every timing reports. On a
	// shared host, wall time also counts the time the hypervisor gives
	// other tenants; on a 2-vCPU cloud VM it moved throughput by up to
	// 60% between identical runs, against about 2% for CPU time at one P.
	runtime.GOMAXPROCS(1)
	stopTheWorldGC()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// stwGC is the GODEBUG setting that makes every garbage collection mark
// with the world stopped.
const stwGC = "gcstoptheworld=1"

// stopTheWorldGC re-executes the harness with stop-the-world garbage
// collection unless it already runs that way. With one P, a concurrent
// collection's mark work is interleaved with the program by a time-based
// worker, so how far the heap grows past its goal before marking ends,
// and with it the peak resident set, depends on timing: per-pass peaks of
// one run moved between 10 and 26 MB on spill-tail. Marking with the
// world stopped makes the heap's growth a function of the allocations
// alone (per-pass peaks within 2%). It costs no parallelism, since one P
// has none to lose. The setting is read only at start-up, hence the
// re-execution; it replaces this process, so no child is left running.
func stopTheWorldGC() {
	godebug := os.Getenv("GODEBUG")
	if slices.Contains(strings.Split(godebug, ","), stwGC) {
		return
	}
	exe, err := os.Executable()
	if err == nil {
		if godebug != "" {
			godebug += ","
		}
		os.Setenv("GODEBUG", godebug+stwGC)
		err = syscall.Exec(exe, os.Args, os.Environ())
	}
	fmt.Fprintf(os.Stderr, "perfbench: cannot re-execute with GODEBUG=%s: %v\n", stwGC, err)
	os.Exit(1)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fit-exec, spill-tail or scale")
	seed := fs.Uint64("seed", 1, "run seed: compilation order and execution-oracle data")
	genSeed := fs.Uint64("gen-seed", 0, "generator seed of the loop population; 0 means the workload's default")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds (whole corpus passes, at least one)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload fit-exec|spill-tail|scale, --seconds >= 0 and --trace 0|1\n")
		return 2
	}
	if *genSeed == 0 {
		*genSeed = w.genSeed
	}
	r := bench(w, *genSeed, *seed, w.loops, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	for _, line := range r.info {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(r.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one benchmark run: the result line, the informational lines
// printed before it, and the deterministic artifacts tests compare.
type report struct {
	result result
	info   []string
	digest string
	counts counts
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 51

// bench runs workload w on an n-loop population for the given budget.
// Traced runs split the budget between the untraced pass(es) and their
// replay.
func bench(w workload, genSeed, runSeed uint64, n int, budget time.Duration, traced bool) *report {
	clock := newRefClock()
	clock.burst()
	setups, setupAt := make([]time.Duration, setupReps), make([]time.Duration, setupReps)
	var jobs []job
	for i := range setups {
		setupAt[i] = clock.now
		t0 := cpuNow()
		jobs = prepare(w, genSeed, runSeed, n)
		setups[i] = cpuNow() - t0
		clock.after(setups[i])
	}
	// Warm up so heap growth and lazy runtime set-up are not charged to
	// the first timed samples.
	compileCore(jobs[0])

	r := &report{result: result{Correct: true, Metrics: map[string]metric{}}}
	r.info = append(r.info, fmt.Sprintf("perfbench workload=%s gen-seed=%d (held-out %d) seed=%d loops=%d jobs=%d trace=%t", w.name, genSeed, w.heldOut, runSeed, n, len(jobs), traced))
	if traced {
		budget /= 2
	}
	u := runUntraced(jobs, budget, clock)
	r.result.Attempted, r.result.Failed = u.passes*len(jobs), u.failed
	r.digest = digest(jobs, u.out)
	r.info = append(r.info, fmt.Sprintf("passes=%d digest=sha256:%s", u.passes, r.digest))
	for i, f := range u.fails {
		if f != "" {
			r.info = append(r.info, fmt.Sprintf("FAIL %s: %s", jobName(jobs[i]), f))
		}
	}
	for _, i := range u.diverged {
		r.info = append(r.info, fmt.Sprintf("NONDETERMINISTIC %s: outcome changed between passes", jobName(jobs[i])))
	}
	if u.failed > 0 || len(u.diverged) > 0 {
		r.result.Correct = false
	}

	if traced {
		tr := runTraced(jobs, u.passes, u.out)
		r.counts = tr.counts
		r.result.Attempted += u.passes * len(jobs)
		r.result.Failed += tr.failed
		if len(tr.divergent) > 0 || tr.failed > 0 {
			r.result.Correct = false
			r.info = append(r.info, tr.divergent...)
		}
		r.perLayer(u, tr)
	} else {
		calibrated := make([]time.Duration, setupReps)
		for i, d := range setups {
			calibrated[i] = clock.scale(d, setupAt[i])
		}
		r.endToEnd(u, median(calibrated))
		f := clock.factors()
		r.info = append(r.info, fmt.Sprintf("uncalibrated: setup_s=%.6g, host speed factor median %.4g (min %.4g, max %.4g) over %d reference bursts",
			median(setups).Seconds(), median(f), slices.Min(f), slices.Max(f), len(f)))
	}
	return r
}

func (r *report) set(name string, v float64, unit string) {
	r.result.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd fills the metrics a user of the compiler sees, from the
// untraced run. Latency per job is its median over the passes and the
// percentiles are over jobs, so the tail percentile depends only on the
// corpus size; throughput is the median over passes.
func (r *report) endToEnd(u *untracedRun, setup time.Duration) {
	lat, perSec := u.timings(true)
	slices.Sort(lat)
	p, beyond := tailPercentile(len(lat))
	r.set("compiles_per_s", perSec, "1/s")
	r.set("compile_p50_ms", ms(percentile(lat, 50)), "ms")
	r.set("compile_tail_ms", ms(percentile(lat, p)), "ms")
	rawLat, rawPerSec := u.timings(false)
	slices.Sort(rawLat)
	r.info = append(r.info, fmt.Sprintf("uncalibrated: compiles_per_s=%.6g compile_p50_ms=%.6g compile_tail_ms=%.6g",
		rawPerSec, ms(percentile(rawLat, 50)), ms(percentile(rawLat, p))))
	r.info = append(r.info, fmt.Sprintf("compile_tail_ms is p%g over %d per-job medians of %d passes (%d samples beyond it)", p, len(lat), u.passes, beyond))
	r.info = append(r.info, fmt.Sprintf("wall clock: %.4g compilations/s over %d passes, %.3f of it on CPU",
		float64(u.passes*len(u.out)-u.failed)/u.wall.Seconds(), u.passes, u.busy().Seconds()/u.wall.Seconds()))

	var ii, mii, fits, cycles, bundles, frame, ok int
	for _, o := range u.out {
		if o.Failed {
			continue
		}
		ok++
		ii += o.II
		mii += o.MII
		cycles += o.Cycles
		bundles += o.Bundles
		frame += o.FrameSlots
		if o.Fits {
			fits++
		}
	}
	attempted := u.passes * len(u.out)
	r.set("ok_frac", 1-float64(u.failed)/float64(attempted), "ratio")
	r.info = append(r.info, fmt.Sprintf("fail_frac=%d/%d", u.failed, attempted))
	r.set("ii_over_mii", ratio(float64(ii), float64(mii)), "ratio")
	r.set("fit_frac", ratio(float64(fits), float64(ok)), "ratio")
	r.set("exec_cycles", float64(cycles), "cycles")
	r.set("code_bundles", float64(bundles), "bundles")
	r.set("frame_slots", float64(frame), "slots")

	if u.peakMB != nil {
		r.set("peak_rss_mb", median(u.peakMB), "MB")
		r.info = append(r.info, fmt.Sprintf("peak_rss_mb is the median of per-pass peaks %.4g", u.peakMB))
	} else {
		// No per-pass high-water mark: fall back to the whole process's.
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			r.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Maxrss is in KiB on Linux
		}
		r.info = append(r.info, "peak_rss_mb is the whole run's peak: the per-pass high-water mark is unavailable")
	}
	r.set("setup_s", setup.Seconds(), "s")
}

// perLayer fills the layer metrics from a traced replay and the
// untraced run it replayed. CPU times and allocation are per corpus pass;
// counts are exact per-pass integers.
func (r *report) perLayer(u *untracedRun, tr *tracedRun) {
	passes := float64(u.passes)
	perPass := func(d time.Duration) float64 { return d.Seconds() / passes }
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) / passes }
	rp, c := tr.rp, &tr.counts

	var layers time.Duration
	for l := layer(0); l < numLayers; l++ {
		layers += rp.busy[l]
		r.set(layerMetrics[l].busy, perPass(rp.busy[l]), "s")
		r.set(layerMetrics[l].alloc, mb(rp.alloc[l]), "MB")
	}
	untraced := u.busy()
	r.set("core.overhead_s", perPass(untraced-layers), "s")
	r.set("trace.overhead_frac", tr.busy.Seconds()/untraced.Seconds()-1, "ratio")
	r.set("go.alloc_mb", mb(u.allocB), "MB")
	r.set("go.gc_cpu_s", u.gcCPU/passes, "s")

	kind := func(k trace.Kind) float64 { return float64(c.Kinds[k]) }
	attempts := kind(trace.KindIIStart)
	r.set("ir.edges", float64(c.Edges), "count")
	r.set("sched.list_fallbacks", float64(c.Fallbacks), "count")
	r.set("sched.ii_attempts", attempts, "count")
	r.set("sched.attempts_per_compile", ratio(attempts, float64(c.Compiles)), "ratio")
	r.set("sched.ii_yield", ratio(float64(c.Compiles), attempts), "ratio")
	slices.Sort(rp.rec.attempts)
	r.set("sched.attempt_ms_p50", ms(percentile(rp.rec.attempts, 50)), "ms")
	places, ejects := kind(trace.KindPlace), kind(trace.KindEject)
	r.set("sched.places", places, "count")
	r.set("sched.forces", kind(trace.KindForce), "count")
	r.set("sched.ejects", ejects, "count")
	r.set("sched.window_misses", kind(trace.KindWindowMiss), "count")
	r.set("sched.eject_per_place", ratio(ejects, places), "ratio")
	r.set("sched.wcache_hit_ratio", ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses)), "ratio")
	r.set("mirs.spills", kind(trace.KindSpill), "count")
	r.set("mirs.spill_ops", float64(c.SpillOps), "count")
	r.set("mirs.spill_s", perPass(rp.rec.spill), "s")
	r.set("mirs.pressure_excess", float64(c.PressureExcess), "count")
	r.set("sched.unroll", float64(c.Unroll), "count")
	r.set("emit.pred_bundles", float64(c.PredBundles), "count")
	r.set("vm.trips", float64(c.Trips), "count")

	share := func(ls ...layer) float64 {
		var d time.Duration
		for _, l := range ls {
			d += rp.busy[l]
		}
		return ratio(d.Seconds(), layers.Seconds())
	}
	r.info = append(r.info, fmt.Sprintf("layer shares: vm+emit+mii=%.3f mirs=%.3f list=%.3f build=%.3f", share(lVerify, lEmit, lMII), share(lMirs), share(lList), share(lBuild)))
}

// digest is a SHA-256 over the sorted per-compilation rows, so a change
// can show its compiled artifacts are unchanged.
func digest(jobs []job, out []outcome) string {
	rows := make([]string, len(jobs))
	for i, j := range jobs {
		o := out[i]
		rows[i] = fmt.Sprintf("%s %s %s ii=%d maxlive=%d unroll=%d cycles=%d bundles=%d frame=%d failed=%t\n",
			j.loop.Name, j.backend.Name(), j.mach.Name, o.II, o.MaxLive, o.Unroll, o.Cycles, o.Bundles, o.FrameSlots, o.Failed)
	}
	slices.Sort(rows)
	h := sha256.New()
	for _, row := range rows {
		io.WriteString(h, row)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// tailPercentile returns the highest of the standard percentiles with at
// least ten of n samples beyond it (p50 when n is too small for any).
func tailPercentile(n int) (float64, int) {
	beyond := func(p float64) int { return n - 1 - int(float64(n-1)*p/100) }
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if b := beyond(p); b >= 10 {
			return p, b
		}
	}
	return 50, beyond(50)
}

// percentile interpolates linearly between the order statistics of
// sorted around rank (n-1)·p/100, so two samples swapping places near
// the rank move it little.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	h := float64(len(sorted)-1) * p / 100
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + time.Duration((h-float64(lo))*float64(sorted[lo+1]-sorted[lo]))
}

// median returns the middle value of v (the mean of the middle two for an
// even count), or 0 for none.
func median[T time.Duration | float64](v []T) T {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when the workload does no such work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
