package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/internal/driver"
)

// outcome is what one compilation produced: the fields the traced replay
// must reproduce, the output digest covers and the quality metrics sum.
type outcome struct {
	II, MII, MaxLive, Unroll, FrameSlots, Cycles, Bundles, Mismatches int
	Fits, Failed                                                      bool
}

// compileCore runs one job through core's panic-isolated entry with
// differential execution on — the call `msched run -exec` makes — under
// the stock per-compilation deadline. fail is empty for a clean,
// verified compilation and otherwise names what went wrong.
func compileCore(j job) (o outcome, fail string, d time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), driver.DefaultTimeout)
	defer cancel()
	t0 := cpuNow()
	r, err := core.CompileSafeWith(ctx, j.backend, j.loop, j.mach, core.Opts{Exec: true})
	d = cpuNow() - t0
	if err != nil {
		kind := "error"
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			kind = "timeout"
		case strings.HasPrefix(err.Error(), "core: panic"):
			kind = "panic"
		}
		msg, _, _ := strings.Cut(err.Error(), "\n")
		return outcome{Failed: true}, kind + ": " + msg, d
	}
	v := r.Verified
	o = outcome{
		II: r.Schedule.II, MII: r.MII.MII, MaxLive: r.Pressure.MaxLive, Unroll: r.Expanded.Unroll,
		FrameSlots: v.FrameSlots, Cycles: v.MVECycles, Bundles: v.MVEBundles,
		Mismatches: len(v.Mismatches), Fits: r.Pressure.Fits(),
	}
	if o.Mismatches > 0 {
		fail = "mismatch: " + v.Mismatches[0]
	}
	return o, fail, d
}

// untracedRun is the end-to-end measurement: whole passes over the jobs
// through compileCore until the budget is spent (at least one pass).
type untracedRun struct {
	passes   int
	wall     time.Duration
	cpu      [][]time.Duration // per job, CPU time in each pass
	out      []outcome         // first pass
	fails    []string          // first pass; "" = clean
	diverged []int             // jobs whose outcome changed between passes
	failed   int               // failed compilations over all passes
	allocB   uint64            // heap bytes allocated over all passes
	gcCPU    float64           // GC CPU seconds over all passes, between-pass collections excluded
	peakMB   []float64         // peak resident set of each pass; nil when it cannot be measured per pass
	start    [][]time.Duration // per job, refClock time when it started in each pass
	clock    *refClock
}

func runUntraced(jobs []job, budget time.Duration, clock *refClock) *untracedRun {
	n := len(jobs)
	u := &untracedRun{cpu: make([][]time.Duration, n), start: make([][]time.Duration, n), clock: clock,
		out: make([]outcome, n), fails: make([]string, n)}
	rt := newRuntimeStats()
	a0, gc0 := rt.read()
	var between float64 // GC CPU seconds of the collections between passes
	start := time.Now()
	for ; u.passes == 0 || time.Since(start) < budget; u.passes++ {
		_, g0 := rt.read()
		perPass := resetPeakRSS()
		_, g1 := rt.read()
		between += g1 - g0
		clock.burst()
		for i, j := range jobs {
			u.start[i] = append(u.start[i], clock.now)
			o, fail, d := compileCore(j)
			clock.after(d)
			u.cpu[i] = append(u.cpu[i], d)
			if fail != "" {
				u.failed++
			}
			switch {
			case u.passes == 0:
				u.out[i], u.fails[i] = o, fail
			case o != u.out[i]:
				u.diverged = append(u.diverged, i)
			}
		}
		if mb, ok := peakRSS(); ok && perPass {
			u.peakMB = append(u.peakMB, mb)
		}
		clock.burst()
	}
	u.wall = time.Since(start)
	a1, gc1 := rt.read()
	u.allocB, u.gcCPU = a1-a0, gc1-gc0-between
	if len(u.peakMB) != u.passes {
		u.peakMB = nil
	}
	return u
}

// resetPeakRSS starts a pass from the same memory state as every other:
// it collects all garbage, returns the free heap to the OS and resets the
// kernel's resident-set high-water mark (VmHWM) to the resident set that
// is left. A pass's peak then does not depend on where garbage collection
// happened to fall in the passes before it. It reports whether the
// high-water mark could be reset (Linux only).
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS returns the process's resident-set high-water mark in MB,
// since the last resetPeakRSS.
func peakRSS() (float64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(v)), " kB"), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// timings returns each job's median latency over the passes and the
// median over passes of compilations completed per second. With
// calibrate, every time is first scaled to the reference host speed.
func (u *untracedRun) timings(calibrate bool) (lat []time.Duration, perSec float64) {
	scaled := func(i, p int) time.Duration {
		if !calibrate {
			return u.cpu[i][p]
		}
		return u.clock.scale(u.cpu[i][p], u.start[i][p])
	}
	lat = make([]time.Duration, len(u.cpu))
	for i := range u.cpu {
		ds := make([]time.Duration, u.passes)
		for p := range ds {
			ds[p] = scaled(i, p)
		}
		lat[i] = median(ds)
	}
	rates := make([]float64, u.passes)
	for p := range rates {
		var busy time.Duration
		completed := 0
		for i := range u.cpu {
			busy += scaled(i, p)
			if !u.out[i].Failed {
				completed++
			}
		}
		rates[p] = float64(completed) / busy.Seconds()
	}
	return lat, median(rates)
}

// busy is the CPU time of every compilation in the run.
func (u *untracedRun) busy() time.Duration {
	var t time.Duration
	for _, ds := range u.cpu {
		for _, d := range ds {
			t += d
		}
	}
	return t
}

// cpuNow is the process's CPU time, user and system. The harness runs
// with GOMAXPROCS=1, so the CPU time between two calls is the compiling
// goroutine's plus the garbage collection it caused, and excludes time
// the host gave to other tenants (see main).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats reads the Go runtime's cumulative heap-allocation and GC
// CPU counters without stopping the world, so it can bracket every
// timed call.
type runtimeStats struct{ s []metrics.Sample }

func newRuntimeStats() *runtimeStats {
	return &runtimeStats{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}}
}

func (r *runtimeStats) read() (allocBytes uint64, gcCPU float64) {
	metrics.Read(r.s)
	return r.s[0].Value.Uint64(), r.s[1].Value.Float64()
}

func (r *runtimeStats) allocBytes() uint64 {
	metrics.Read(r.s[:1])
	return r.s[0].Value.Uint64()
}

// refClock measures how fast the host runs right now, so that CPU times
// taken while co-tenants of a shared host slow this CPU down (on a 2-vCPU
// cloud VM its speed jumped between levels about 1.5× apart every few
// hundred milliseconds) can be scaled back to one reference speed.
// Between compilations, once every refEvery of compile CPU time, it runs
// a burst of fixed reference work (refKernel) and times it. The reference
// work does not depend on the code under test, so a faster compiler still
// shows as faster.
type refClock struct {
	k     *refKernel
	now   time.Duration   // measured CPU time so far, bursts excluded
	since time.Duration   // measured CPU time since the last burst
	at    []time.Duration // now at each burst
	unit  []time.Duration // CPU time of one reference unit, per burst
}

const (
	refEvery = 50 * time.Millisecond
	refUnits = 7 // timed units per burst, after one untimed warm-up unit
	// refNominal is one unit's CPU time at the reference speed. It only
	// sets the scale of the reported times: it is near the median unit
	// time measured on a 2-vCPU x86 KVM guest (Xeon, AVX-512).
	refNominal = 150 * time.Microsecond
)

func newRefClock() *refClock { return &refClock{k: newRefKernel()} }

// after accounts a measured interval of CPU time d and runs a burst
// when one is due.
func (c *refClock) after(d time.Duration) {
	c.now += d
	if c.since += d; c.since >= refEvery {
		c.burst()
	}
}

// burst runs and times one burst of reference work. Its first unit
// brings the kernel's data back into cache and is not timed; the median
// of the others ignores a unit the runtime's background work interrupted.
func (c *refClock) burst() {
	c.k.run()
	units := make([]time.Duration, refUnits)
	for i := range units {
		t0 := cpuNow()
		c.k.run()
		units[i] = cpuNow() - t0
	}
	c.at = append(c.at, c.now)
	c.unit = append(c.unit, median(units))
	c.since = 0
}

// scale returns d, an interval that started at clock time t, at the
// reference speed: d times the mean reference speed of the bursts from
// the last one at or before t−d to the first one at or after t+2d. A
// short interval is scaled by the bursts just around it. A long one, such
// as a compilation of seconds that spans several swings of host speed
// with no burst inside it, is scaled by the bursts over as long a stretch
// on either side.
func (c *refClock) scale(d, t time.Duration) time.Duration {
	lo := max(sort.Search(len(c.at), func(i int) bool { return c.at[i] > t-d })-1, 0)
	hi := min(sort.Search(len(c.at), func(i int) bool { return c.at[i] >= t+2*d }), len(c.at)-1)
	var sum time.Duration
	for _, u := range c.unit[lo : hi+1] {
		sum += u
	}
	return time.Duration(float64(d) * float64(refNominal) * float64(hi+1-lo) / float64(sum))
}

// factors are the speed factors of all bursts, for the run's
// informational output.
func (c *refClock) factors() []float64 {
	f := make([]float64, len(c.unit))
	for i, u := range c.unit {
		f[i] = float64(refNominal) / float64(u)
	}
	return f
}

// refKernel is the reference work: a data-dependent walk around a fixed
// random cycle with a map lookup and a branch per step, the
// pointer-chasing, branchy kind of work a compiler does. Its data (about
// 50 KiB) is small enough that one unit brings all of it back into cache,
// so a burst measures the CPU's speed, not what the compilation before it
// left in the cache. It allocates nothing, so no garbage collection lands
// in a burst.
type refKernel struct {
	next []uint32 // one cycle through every index
	keys map[uint32]uint32
	acc  uint32
}

func newRefKernel() *refKernel {
	const n = 1 << 13
	rng := rand.New(rand.NewPCG(1, 2))
	perm := rng.Perm(n)
	k := &refKernel{next: make([]uint32, n), keys: make(map[uint32]uint32, n/16)}
	for i, p := range perm {
		k.next[p] = uint32(perm[(i+1)%n])
	}
	for range n / 16 {
		k.keys[uint32(rng.IntN(n))] = rng.Uint32()
	}
	return k
}

// run does one unit of reference work: once around the cycle.
func (k *refKernel) run() {
	x := k.acc % uint32(len(k.next))
	for range k.next {
		x = k.next[x]
		if v, ok := k.keys[x]; ok && v&1 == 0 {
			k.acc += v
		} else {
			k.acc ^= x
		}
	}
}
