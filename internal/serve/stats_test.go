package serve

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// TestLatencyHistConcurrent hammers one histogram from many goroutines
// and checks the exact totals: under -race this pins that observe() is
// safe, and the arithmetic pins that no observation is lost or
// double-counted.
func TestLatencyHistConcurrent(t *testing.T) {
	const (
		workers = 16
		perW    = 1000
	)
	var h latencyHist
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.observe(int64(w*perW + i))
			}
		}(w)
	}
	wg.Wait()

	n := int64(workers * perW)
	if got := h.count.Load(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	// Sum of 0..n-1.
	if got, want := h.sum.Load(), n*(n-1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	var inBuckets int64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	if inBuckets != n {
		t.Fatalf("bucket total = %d, want %d", inBuckets, n)
	}
	if q := h.quantile(0.5); q <= 0 || q > 1<<31 {
		t.Fatalf("median out of range: %d", q)
	}
}

// TestStatsCountersConcurrent increments the request counters from many
// goroutines and checks exact totals; with -race it doubles as the
// lock-freedom proof for the stats block.
func TestStatsCountersConcurrent(t *testing.T) {
	var st stats
	st.initBackends([]string{"a", "b"})
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				st.requests.Add(1)
				st.hits.Add(1)
				st.search.Emit(trace.Event{Kind: trace.KindEject})
				st.compileLat["a"].observe(int64(i))
			}
		}()
	}
	wg.Wait()
	n := int64(workers * perW)
	snap := st.snapshot()
	if snap.Requests != n || snap.Hits != n {
		t.Fatalf("snapshot totals: %+v, want %d", snap, n)
	}
	if got := st.search.Count(trace.KindEject); got != n {
		t.Fatalf("search eject count = %d, want %d", got, n)
	}
	if got := st.compileLat["a"].count.Load(); got != n {
		t.Fatalf("compile hist count = %d, want %d", got, n)
	}
	if got := st.compileLat["b"].count.Load(); got != 0 {
		t.Fatalf("untouched backend hist count = %d, want 0", got)
	}
}

// TestStatszGolden pins the counter/gauge section of /v1/statsz for a
// fresh server byte-for-byte, so the exposition names and HELP text
// cannot drift silently out from under dashboards.
func TestStatszGolden(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	text := s.prometheusText()
	golden := `# HELP msched_requests_total compile units accepted (single requests plus batch items)
# TYPE msched_requests_total counter
msched_requests_total 0
# HELP msched_cache_hits_total requests served from the schedule cache
# TYPE msched_cache_hits_total counter
msched_cache_hits_total 0
# HELP msched_cache_misses_total requests that led a compilation
# TYPE msched_cache_misses_total counter
msched_cache_misses_total 0
# HELP msched_singleflight_coalesced_total requests collapsed onto an in-flight identical compilation
# TYPE msched_singleflight_coalesced_total counter
msched_singleflight_coalesced_total 0
# HELP msched_shed_total requests rejected with 429 because the compile queue was full
# TYPE msched_shed_total counter
msched_shed_total 0
# HELP msched_errors_total failed compilations
# TYPE msched_errors_total counter
msched_errors_total 0
# HELP msched_timeouts_total requests whose deadline fired
# TYPE msched_timeouts_total counter
msched_timeouts_total 0
# HELP msched_compilations_total compilations run to successful completion
# TYPE msched_compilations_total counter
msched_compilations_total 0
# HELP msched_cache_evictions_total LRU entries evicted under pressure
# TYPE msched_cache_evictions_total counter
msched_cache_evictions_total 0
# HELP msched_inflight compile leaders currently queued or running
# TYPE msched_inflight gauge
msched_inflight 0
# HELP msched_waiters requests currently parked on an in-flight compilation
# TYPE msched_waiters gauge
msched_waiters 0
# HELP msched_cache_entries schedule cache occupancy
# TYPE msched_cache_entries gauge
msched_cache_entries 0
# HELP msched_cache_capacity schedule cache capacity in entries
# TYPE msched_cache_capacity gauge
msched_cache_capacity 16
# HELP msched_queue_depth_limit compile admissions before shedding
# TYPE msched_queue_depth_limit gauge
msched_queue_depth_limit 8
# HELP msched_compile_slots concurrent compilation slots
# TYPE msched_compile_slots gauge
msched_compile_slots 2
`
	if !strings.HasPrefix(text, golden) {
		t.Fatalf("statsz counter/gauge section drifted.\nwant prefix:\n%s\ngot:\n%s", golden, text)
	}
	// Every search-event kind must appear, zero-valued on a fresh server.
	for _, k := range trace.Kinds() {
		want := fmt.Sprintf("msched_search_events_total{kind=%q} 0\n", k.String())
		if !strings.Contains(text, want) {
			t.Fatalf("statsz missing %q", want)
		}
	}
}

// TestStatszPrometheusConformance checks the histogram families against
// the exposition-format contract a real scraper relies on: buckets are
// cumulative and non-decreasing, the family ends with le="+Inf" whose
// value equals the _count series, and _sum/_count are present for every
// family instance (per backend included).
func TestStatszPrometheusConformance(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Put some observations in so the cumulation is non-trivial.
	for i := int64(1); i < 2000; i *= 3 {
		s.st.latency.observe(i)
		s.st.compileLat["mirs"].observe(i * 2)
	}

	type family struct {
		buckets []int64 // in emission order
		lastLe  string
		sum     bool
		count   int64
		hasCnt  bool
	}
	families := map[string]*family{}
	get := func(name string) *family {
		f := families[name]
		if f == nil {
			f = &family{}
			families[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(strings.NewReader(s.prometheusText()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		switch {
		case strings.Contains(name, "_bucket{"):
			base, labels, _ := strings.Cut(name, "_bucket{")
			// Key per family instance: base plus any backend label.
			key := base
			if i := strings.Index(labels, `backend="`); i >= 0 {
				rest := labels[i+len(`backend="`):]
				key = base + "/" + rest[:strings.Index(rest, `"`)]
			}
			f := get(key)
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			f.buckets = append(f.buckets, n)
			le := labels[strings.Index(labels, `le="`)+len(`le="`):]
			f.lastLe = le[:strings.Index(le, `"`)]
		case strings.Contains(name, "_sum"):
			base := strings.SplitN(name, "_sum", 2)[0]
			key := base
			if i := strings.Index(name, `backend="`); i >= 0 {
				rest := name[i+len(`backend="`):]
				key = base + "/" + rest[:strings.Index(rest, `"`)]
			}
			get(key).sum = true
		case strings.Contains(name, "_count"):
			base := strings.SplitN(name, "_count", 2)[0]
			key := base
			if i := strings.Index(name, `backend="`); i >= 0 {
				rest := name[i+len(`backend="`):]
				key = base + "/" + rest[:strings.Index(rest, `"`)]
			}
			f := get(key)
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("count value %q: %v", line, err)
			}
			f.count = n
			f.hasCnt = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	checked := 0
	for key, f := range families {
		if len(f.buckets) == 0 {
			continue
		}
		checked++
		for i := 1; i < len(f.buckets); i++ {
			if f.buckets[i] < f.buckets[i-1] {
				t.Errorf("%s: buckets not cumulative at %d: %v", key, i, f.buckets)
				break
			}
		}
		if f.lastLe != "+Inf" {
			t.Errorf("%s: last bucket le = %q, want +Inf", key, f.lastLe)
		}
		if !f.sum || !f.hasCnt {
			t.Errorf("%s: missing _sum or _count series", key)
		}
		if inf := f.buckets[len(f.buckets)-1]; inf != f.count {
			t.Errorf("%s: +Inf bucket %d != _count %d", key, inf, f.count)
		}
	}
	// Request latency + one instance per registered backend (>= 2:
	// list and mirs from the core registry).
	if checked < 3 {
		t.Fatalf("conformance saw only %d histogram instance(s)", checked)
	}
	if f := families["msched_request_latency_seconds"]; f == nil || f.count == 0 {
		t.Fatalf("request latency family missing or empty: %+v", f)
	}
	if f := families["msched_compile_latency_seconds/mirs"]; f == nil || f.count == 0 {
		t.Fatalf("mirs compile latency family missing or empty: %+v", f)
	}
}
