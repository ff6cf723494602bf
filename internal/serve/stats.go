package serve

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/paper-repo-growth/mirs/pkg/trace"
)

// stats is the server's counter block. Everything is a lock-free atomic
// so the hot path never serialises on metrics; /v1/statsz renders a
// consistent-enough snapshot (counters are monotone, gauges are
// instantaneous).
type stats struct {
	requests     atomic.Int64 // compile units accepted (single + batch items)
	hits         atomic.Int64 // served straight from the LRU
	misses       atomic.Int64 // singleflight leaders that went to compile
	coalesced    atomic.Int64 // joiners collapsed onto an in-flight compile
	shed         atomic.Int64 // rejected with 429 (queue full)
	errors       atomic.Int64 // compile failures (backend error or panic)
	timeouts     atomic.Int64 // per-request deadline fired (waiting or compiling)
	compilations atomic.Int64 // successful compilations performed
	inflight     atomic.Int64 // gauge: leaders queued or compiling now
	waiters      atomic.Int64 // gauge: joiners waiting on an in-flight compile

	latency latencyHist

	// compileLat histograms the compile phase alone (no queueing, no
	// cache path) per backend. The map is built once at server
	// construction and only read afterwards, so lookups need no lock.
	compileLat map[string]*latencyHist

	// search aggregates the scheduler's trace events (pkg/trace) across
	// every compilation the server leads: one atomic per event kind, so
	// /v1/statsz can report how hard the backends are backtracking
	// (ejections, forces, spills) without per-request traces.
	search trace.Counters
}

// initBackends sizes the per-backend structures; call once before serving.
func (st *stats) initBackends(names []string) {
	st.compileLat = make(map[string]*latencyHist, len(names))
	for _, n := range names {
		st.compileLat[n] = &latencyHist{}
	}
}

// Snapshot is a point-in-time copy of the server counters, exposed for
// in-process observers (the load-test harness) that should not have to
// scrape and parse /v1/statsz.
type Snapshot struct {
	// Requests counts compile units accepted: single-compile requests
	// plus individual batch items; health and stats probes are excluded.
	Requests int64 `json:"requests"`
	// Hits and Misses partition cache lookups that reached a decision
	// (hits served from the LRU; misses became singleflight leaders).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Coalesced counts requests collapsed onto another request's
	// in-flight compilation by the singleflight layer.
	Coalesced int64 `json:"coalesced"`
	// Shed counts requests rejected with 429 because the compile queue
	// was at depth.
	Shed int64 `json:"shed"`
	// Errors counts failed compilations; Timeouts counts per-request
	// deadlines that fired while queued, coalesced or compiling.
	Errors   int64 `json:"errors"`
	Timeouts int64 `json:"timeouts"`
	// Compilations counts compilations that ran to successful
	// completion — the number the cache and singleflight layers exist
	// to minimise.
	Compilations int64 `json:"compilations"`
	// Inflight and Waiters are gauges: compile leaders currently queued
	// or running, and joiners currently parked on one.
	Inflight int64 `json:"inflight"`
	Waiters  int64 `json:"waiters"`
	// CacheEntries and CacheEvictions describe the LRU.
	CacheEntries   int64 `json:"cache_entries"`
	CacheEvictions int64 `json:"cache_evictions"`
	// P50Micros / P99Micros are request-latency quantiles in
	// microseconds, measured over every compile unit (hit or miss).
	// Zero until the first request.
	P50Micros int64 `json:"p50_micros"`
	P99Micros int64 `json:"p99_micros"`
}

// HitRate is Hits / (Hits + Misses); zero before any lookup decides.
func (s Snapshot) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// latencyHist is a power-of-two histogram of request latencies in
// microseconds: observation d lands in bucket bits.Len64(d), covering
// sub-microsecond to ~36 minutes in 32 buckets. Quantiles are exact to
// within a factor of two, which is all a load gate needs.
type latencyHist struct {
	buckets [32]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // total observed microseconds, for the _sum series
}

// observe records one request latency.
func (h *latencyHist) observe(micros int64) {
	if micros < 0 {
		micros = 0
	}
	b := bits.Len64(uint64(micros))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(micros)
}

// quantile returns an upper bound on the q-quantile (0 < q <= 1) in
// microseconds: the top of the first bucket at which the cumulative
// count reaches q of the total. Zero when nothing was observed.
func (h *latencyHist) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum >= target {
			if b == 0 {
				return 0
			}
			return 1 << b // upper edge of bucket b: [2^(b-1), 2^b)
		}
	}
	return 1 << (len(h.buckets) - 1)
}

// snapshot copies the counters; cache figures are filled by the caller.
func (st *stats) snapshot() Snapshot {
	return Snapshot{
		Requests:     st.requests.Load(),
		Hits:         st.hits.Load(),
		Misses:       st.misses.Load(),
		Coalesced:    st.coalesced.Load(),
		Shed:         st.shed.Load(),
		Errors:       st.errors.Load(),
		Timeouts:     st.timeouts.Load(),
		Compilations: st.compilations.Load(),
		Inflight:     st.inflight.Load(),
		Waiters:      st.waiters.Load(),
		P50Micros:    st.latency.quantile(0.50),
		P99Micros:    st.latency.quantile(0.99),
	}
}

// writeHistogram renders one histogram series set under an already
// emitted family header, following the Prometheus exposition
// convention: cumulative `le`-labelled buckets ending at "+Inf" (whose
// count equals _count), then the _sum and _count series. labels is
// either empty or a `key="value",` prefix spliced before the le label.
// Bucket edges are the histogram's power-of-two boundaries in seconds;
// every observation in buckets 0..i is below edge i, so cumulation is
// exact.
func writeHistogram(b *strings.Builder, name, labels string, h *latencyHist) {
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.buckets)-1 {
			le = fmt.Sprintf("%g", float64(uint64(1)<<uint(i))/1e6)
		}
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, labels, le, cum)
	}
	var trimmed string
	if labels != "" {
		trimmed = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %g\n", name, trimmed, float64(h.sum.Load())/1e6)
	fmt.Fprintf(b, "%s_count%s %d\n", name, trimmed, h.count.Load())
}

// prometheusText renders the server's telemetry in Prometheus text
// exposition format — counter and gauge families under the msched_
// prefix, latency histograms with cumulative le buckets, per-backend
// compile histograms and the scheduler's search-event counters — so a
// standard scraper ingests /v1/statsz without an adapter.
func (s *Server) prometheusText() string {
	snap := s.Stats()
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP msched_%s %s\n# TYPE msched_%s counter\nmsched_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP msched_%s %s\n# TYPE msched_%s gauge\nmsched_%s %d\n", name, help, name, name, v)
	}
	counter("requests_total", "compile units accepted (single requests plus batch items)", snap.Requests)
	counter("cache_hits_total", "requests served from the schedule cache", snap.Hits)
	counter("cache_misses_total", "requests that led a compilation", snap.Misses)
	counter("singleflight_coalesced_total", "requests collapsed onto an in-flight identical compilation", snap.Coalesced)
	counter("shed_total", "requests rejected with 429 because the compile queue was full", snap.Shed)
	counter("errors_total", "failed compilations", snap.Errors)
	counter("timeouts_total", "requests whose deadline fired", snap.Timeouts)
	counter("compilations_total", "compilations run to successful completion", snap.Compilations)
	counter("cache_evictions_total", "LRU entries evicted under pressure", snap.CacheEvictions)
	gauge("inflight", "compile leaders currently queued or running", snap.Inflight)
	gauge("waiters", "requests currently parked on an in-flight compilation", snap.Waiters)
	gauge("cache_entries", "schedule cache occupancy", snap.CacheEntries)
	gauge("cache_capacity", "schedule cache capacity in entries", int64(s.cfg.CacheSize))
	gauge("queue_depth_limit", "compile admissions before shedding", int64(s.cfg.QueueDepth))
	gauge("compile_slots", "concurrent compilation slots", int64(s.cfg.Workers))

	fmt.Fprintf(&b, "# HELP msched_request_latency_seconds request latency over compile units (cache hits included)\n")
	fmt.Fprintf(&b, "# TYPE msched_request_latency_seconds histogram\n")
	writeHistogram(&b, "msched_request_latency_seconds", "", &s.st.latency)

	fmt.Fprintf(&b, "# HELP msched_compile_latency_seconds compile-phase latency per backend (leaders only)\n")
	fmt.Fprintf(&b, "# TYPE msched_compile_latency_seconds histogram\n")
	backends := make([]string, 0, len(s.st.compileLat))
	for name := range s.st.compileLat {
		backends = append(backends, name)
	}
	sort.Strings(backends)
	for _, name := range backends {
		writeHistogram(&b, "msched_compile_latency_seconds", fmt.Sprintf("backend=%q,", name), s.st.compileLat[name])
	}

	fmt.Fprintf(&b, "# HELP msched_search_events_total scheduler search events across served compilations (pkg/trace)\n")
	fmt.Fprintf(&b, "# TYPE msched_search_events_total counter\n")
	for _, k := range trace.Kinds() {
		fmt.Fprintf(&b, "msched_search_events_total{kind=%q} %d\n", k.String(), s.st.search.Count(k))
	}
	return b.String()
}
