package regpress

import (
	"fmt"

	"github.com/paper-repo-growth/mirs/pkg/life"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// Tracker is the incremental counterpart of Analyze: a per-cluster,
// per-kernel-cycle live-value account that a scheduler can update lifetime
// by lifetime as it places, ejects and spills operations. Each update is
// O(min(length, II)) and the pressure queries (MaxLive, Excess, Fits) are
// O(1), FitsAll O(clusters), cheap enough to sit inside a placement loop;
// Analyze remains the authoritative whole-schedule check.
//
// The O(1) queries come from a max index kept beside the counts: per
// cluster, hist[v] is the number of kernel cycles whose count is v, and
// max is the largest v with hist[v] > 0. A count change moves one cycle
// between histogram buckets; the pointer moves up with any count that
// passes it and walks down past emptied buckets, so each walk step pays
// for a unit of count that was removed.
//
// The tracker is deliberately ignorant of *what* a lifetime is — callers
// add and remove flat [start, end] intervals charged to a cluster, using
// the same folding rule as Analyze: an interval covers kernel cycle c once
// per flat cycle congruent to c (mod II) it spans, which is the number of
// simultaneously live copies the steady state sustains.
type Tracker struct {
	ii int
	cl []clusterAcct
}

// clusterAcct is one cluster's account. Every cluster's counts and hist
// rows are carved from one backing array each, so a tracker costs three
// allocations whatever the cluster count.
type clusterAcct struct {
	size   int   // register-file size
	max    int   // largest count with a non-empty hist bucket
	counts []int // kernel cycle -> live values
	hist   []int // live count -> kernel cycles at that count
}

// histRoom is the count range each cluster's histogram row is carved
// with; a count past it grows that row on its own.
const histRoom = 64

// NewTracker returns an empty pressure account for machine m at the given
// II.
func NewTracker(m *machine.Machine, ii int) (*Tracker, error) {
	if ii < 1 {
		return nil, fmt.Errorf("regpress: tracker with II %d < 1", ii)
	}
	t := &Tracker{cl: make([]clusterAcct, m.NumClusters())}
	hist := make([]int, len(t.cl)*histRoom)
	for ci := range t.cl {
		t.cl[ci].size = m.Clusters[ci].RegFile.Size
		t.cl[ci].hist = hist[ci*histRoom : ci*histRoom : (ci+1)*histRoom]
	}
	t.Reset(ii)
	return t, nil
}

// Reset zeroes the account and retargets it to a (possibly different)
// II, reusing the per-cluster count rows when their capacity allows.
// Schedulers call it once per candidate II so the incremental pressure
// path allocates nothing across an II search.
func (t *Tracker) Reset(ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("regpress: tracker reset to II %d < 1", ii))
	}
	t.ii = ii
	var counts []int
	if len(t.cl) > 0 && cap(t.cl[0].counts) < ii {
		counts = make([]int, len(t.cl)*ii)
	}
	for ci := range t.cl {
		a := &t.cl[ci]
		if counts != nil {
			a.counts = counts[ci*ii : (ci+1)*ii : (ci+1)*ii]
		} else {
			a.counts = a.counts[:ii]
			clear(a.counts)
		}
		a.hist = append(a.hist[:0], ii) // every kernel cycle at count 0
		a.max = 0
	}
}

// II returns the tracker's initiation interval.
func (t *Tracker) II() int { return t.ii }

// Add charges the flat interval [start, end] (inclusive, start >= 0) to
// cluster's register file.
func (t *Tracker) Add(cluster, start, end int) { t.bump(cluster, start, end, 1) }

// Remove undoes a previous Add of the same interval. Removing an
// interval that was never added drives a count below zero and panics.
func (t *Tracker) Remove(cluster, start, end int) { t.bump(cluster, start, end, -1) }

// AddLifetime charges one enumerated live range (pkg/life) to its
// cluster — the preferred interface for schedulers mirroring the
// authoritative lifetime model interval by interval.
func (t *Tracker) AddLifetime(lt life.Lifetime) { t.bump(lt.Cluster, lt.Start, lt.End, 1) }

// RemoveLifetime undoes a previous AddLifetime of the same range.
func (t *Tracker) RemoveLifetime(lt life.Lifetime) { t.bump(lt.Cluster, lt.Start, lt.End, -1) }

func (t *Tracker) bump(cluster, start, end, delta int) {
	if end < start {
		return
	}
	length := end - start + 1
	full := length / t.ii
	a := &t.cl[cluster]
	counts, h, top := a.counts, a.hist, a.max
	if delta > 0 {
		// A cycle gains at most full wraps plus one partial cover: make
		// room in the histogram for the highest count reachable.
		for len(h) < top+full+2 {
			h = append(h, 0)
		}
		a.hist = h
	}
	// move shifts kernel cycle c's count by d and the cycle to its new
	// histogram bucket.
	move := func(c, d int) {
		old := counts[c]
		n := old + d
		if n < 0 {
			panic(fmt.Sprintf("regpress: cluster %d cycle %d count below zero: removed an interval never added", cluster, c))
		}
		counts[c] = n
		h[old]--
		h[n]++
		if n > top {
			top = n
		}
	}
	// Every full II-cycle wrap covers each kernel cycle exactly once.
	if full > 0 {
		for c := 0; c < t.ii; c++ {
			move(c, full*delta)
		}
	}
	for f := start + full*t.ii; f <= end; f++ {
		move(f%t.ii, delta)
	}
	// The max pointer rose with any count that passed it; after a
	// removal it walks down past the buckets the removal emptied.
	for top > 0 && h[top] == 0 {
		top--
	}
	a.max = top
}

// PressureAt returns the live count charged to cluster at kernel cycle
// (cycle mod II).
func (t *Tracker) PressureAt(cluster, cycle int) int {
	return t.cl[cluster].counts[((cycle%t.ii)+t.ii)%t.ii]
}

// MaxLive returns the cluster's current maximum per-cycle live count.
func (t *Tracker) MaxLive(cluster int) int { return t.cl[cluster].max }

// Excess returns how far the cluster currently overshoots its register
// file (0 when it fits).
func (t *Tracker) Excess(cluster int) int {
	if over := t.cl[cluster].max - t.cl[cluster].size; over > 0 {
		return over
	}
	return 0
}

// Fits reports whether the cluster's tracked pressure fits its register
// file.
func (t *Tracker) Fits(cluster int) bool { return t.Excess(cluster) == 0 }

// FitsAll reports whether every cluster fits.
func (t *Tracker) FitsAll() bool {
	for ci := range t.cl {
		if !t.Fits(ci) {
			return false
		}
	}
	return true
}
