package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// gatedSched is a controllable backend: it counts Schedule calls and,
// when gate is non-nil, parks until the gate closes or the request
// context fires — the deterministic way to hold a compilation in
// flight while the test arranges concurrent duplicates around it.
type gatedSched struct {
	gate  chan struct{}
	calls atomic.Int32
}

func (g *gatedSched) Name() string { return "gated" }
func (g *gatedSched) Schedule(req *sched.Request) (*sched.Schedule, error) {
	g.calls.Add(1)
	if g.gate != nil {
		select {
		case <-g.gate:
		case <-req.Ctx.Done():
			return nil, req.Cancelled()
		}
	}
	s, err := sched.ListScheduler{}.Schedule(req)
	if s != nil {
		s.By = "gated"
	}
	return s, err
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// compileBody builds a /v1/compile request body.
func compileBody(t *testing.T, l *ir.Loop, machineName, backend string) []byte {
	t.Helper()
	data, err := json.Marshal(CompileRequest{Loop: l, MachineName: machineName, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// post sends body to path and decodes the response JSON into out.
func post(t *testing.T, base, path string, body []byte, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("response %d not JSON: %v\n%s", resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode, resp.Header
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCompileEndToEnd drives the real pipeline over HTTP: a first
// compile misses and runs MIRS, an identical second request hits the
// cache with the same artifact, and healthz/statsz report the episode.
func TestCompileEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	l := ir.ExampleLoops()[0]
	body := compileBody(t, l, "unified", "mirs")

	var first CompileResponse
	if code, _ := post(t, ts.URL, "/v1/compile", body, &first); code != http.StatusOK {
		t.Fatalf("compile: status %d: %+v", code, first)
	}
	if first.Cached || first.II < first.MII || first.MII < 1 || first.Unroll < 1 {
		t.Fatalf("implausible first response: %+v", first)
	}
	if first.Loop != l.Name || first.Machine != "unified" || first.Backend != "mirs" || len(first.Address) != 64 {
		t.Fatalf("labels wrong: %+v", first)
	}

	var second CompileResponse
	if code, _ := post(t, ts.URL, "/v1/compile", body, &second); code != http.StatusOK {
		t.Fatalf("second compile failed")
	}
	if !second.Cached {
		t.Fatalf("identical request must hit the cache: %+v", second)
	}
	if second.Address != first.Address || second.II != first.II || second.MaxLive != first.MaxLive {
		t.Fatalf("cache returned a different artifact: %+v vs %+v", second, first)
	}

	snap := s.Stats()
	if snap.Hits != 1 || snap.Misses != 1 || snap.Compilations != 1 || snap.Requests != 2 {
		t.Fatalf("stats after hit+miss: %+v", snap)
	}

	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hresp)
	}
	hresp.Body.Close()

	sresp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	text, _ := io.ReadAll(sresp.Body)
	for _, want := range []string{
		"msched_requests_total 2",
		"msched_cache_hits_total 1",
		"msched_cache_misses_total 1",
		"msched_compilations_total 1",
		"# TYPE msched_requests_total counter",
		"# TYPE msched_request_latency_seconds histogram",
		`msched_request_latency_seconds_bucket{le="+Inf"} 2`,
		"msched_request_latency_seconds_count 2",
		`msched_compile_latency_seconds_bucket{backend=`,
		`msched_search_events_total{kind=`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("statsz missing %q:\n%s", want, text)
		}
	}
}

// TestSingleflightCollapse pins the collapse contract: N concurrent
// identical requests perform exactly one compilation; the rest coalesce
// onto it and share the artifact. Run under -race this also proves the
// cache/singleflight locking is clean.
func TestSingleflightCollapse(t *testing.T) {
	const dup = 8
	be := &gatedSched{gate: make(chan struct{})}
	s, ts := newTestServer(t, Config{Backends: []sched.Scheduler{be}, Workers: 4})
	body := compileBody(t, ir.ExampleLoops()[0], "unified", "")

	responses := make([]CompileResponse, dup)
	codes := make([]int, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, ts.URL, "/v1/compile", body, &responses[i])
		}(i)
	}
	// Release the gate only once the leader is compiling and all other
	// requests are parked on its call — the deterministic collapse.
	waitFor(t, "1 leader + 7 waiters", func() bool {
		snap := s.Stats()
		return snap.Misses == 1 && snap.Waiters == dup-1
	})
	close(be.gate)
	wg.Wait()

	leaders, coalesced := 0, 0
	for i := range responses {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		switch {
		case responses[i].Coalesced:
			coalesced++
		case !responses[i].Cached:
			leaders++
		}
		if responses[i].II != responses[0].II || responses[i].Address != responses[0].Address {
			t.Fatalf("responses disagree: %+v vs %+v", responses[i], responses[0])
		}
	}
	if got := be.calls.Load(); got != 1 {
		t.Fatalf("singleflight leaked: %d compilations for %d identical requests", got, dup)
	}
	if leaders != 1 || coalesced != dup-1 {
		t.Fatalf("want 1 leader + %d coalesced, got %d + %d", dup-1, leaders, coalesced)
	}
	snap := s.Stats()
	if snap.Compilations != 1 || snap.Coalesced != dup-1 || snap.Waiters != 0 {
		t.Fatalf("stats after collapse: %+v", snap)
	}
}

// TestLRUEvictionUnderPressure pins the eviction contract: with a
// 2-entry cache, a third distinct compilation evicts the least recently
// used artifact, whose next request misses and recompiles.
func TestLRUEvictionUnderPressure(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2, DefaultBackend: "list"})
	loops := gen.Corpus(11, 3)

	for _, l := range loops {
		var resp CompileResponse
		if code, _ := post(t, ts.URL, "/v1/compile", compileBody(t, l, "unified", "list"), &resp); code != http.StatusOK {
			t.Fatalf("compile %s: %d", l.Name, code)
		}
	}
	snap := s.Stats()
	if snap.Misses != 3 || snap.CacheEntries != 2 || snap.CacheEvictions != 1 {
		t.Fatalf("after 3 compiles into 2 slots: %+v", snap)
	}

	// loops[0] was the LRU victim: it must miss and recompile ...
	var again CompileResponse
	post(t, ts.URL, "/v1/compile", compileBody(t, loops[0], "unified", "list"), &again)
	if again.Cached {
		t.Fatalf("evicted entry served from cache: %+v", again)
	}
	// ... while loops[2] (most recent) still hits.
	var recent CompileResponse
	post(t, ts.URL, "/v1/compile", compileBody(t, loops[2], "unified", "list"), &recent)
	if !recent.Cached {
		t.Fatalf("resident entry missed: %+v", recent)
	}
	snap = s.Stats()
	if snap.Misses != 4 || snap.Hits != 1 || snap.CacheEvictions != 2 {
		t.Fatalf("after eviction round trip: %+v", snap)
	}
}

// TestLoadShedding pins the backpressure contract: once the compile
// queue is at depth, a further miss is shed immediately with 429 and a
// Retry-After header rather than buffered.
func TestLoadShedding(t *testing.T) {
	be := &gatedSched{gate: make(chan struct{})}
	s, ts := newTestServer(t, Config{Backends: []sched.Scheduler{be}, Workers: 1, QueueDepth: 1})
	loops := gen.Corpus(13, 2)

	var wg sync.WaitGroup
	wg.Add(1)
	var firstCode int
	go func() {
		defer wg.Done()
		firstCode, _ = post(t, ts.URL, "/v1/compile", compileBody(t, loops[0], "unified", ""), &CompileResponse{})
	}()
	waitFor(t, "first compile in flight", func() bool { return s.Stats().Inflight == 1 })

	var errBody errorResponse
	code, hdr := post(t, ts.URL, "/v1/compile", compileBody(t, loops[1], "unified", ""), &errBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %+v", code, errBody)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(errBody.Error, "queue full") {
		t.Fatalf("unhelpful shed error: %q", errBody.Error)
	}

	close(be.gate)
	wg.Wait()
	if firstCode != http.StatusOK {
		t.Fatalf("in-flight request should have completed: %d", firstCode)
	}
	snap := s.Stats()
	if snap.Shed != 1 || snap.Compilations != 1 || snap.Inflight != 0 {
		t.Fatalf("stats after shed: %+v", snap)
	}
}

// TestPerRequestTimeout pins the deadline contract: a compilation that
// outlives the per-request budget is cancelled through the context
// plumbing and reported as 504, leaving no slot occupied.
func TestPerRequestTimeout(t *testing.T) {
	be := &gatedSched{gate: make(chan struct{})} // never released
	s, ts := newTestServer(t, Config{Backends: []sched.Scheduler{be}, Timeout: 50 * time.Millisecond})

	var errBody errorResponse
	code, _ := post(t, ts.URL, "/v1/compile", compileBody(t, ir.ExampleLoops()[0], "unified", ""), &errBody)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %+v", code, errBody)
	}
	waitFor(t, "slot released", func() bool { return s.Stats().Inflight == 0 })
	if snap := s.Stats(); snap.Timeouts != 1 || snap.Compilations != 0 {
		t.Fatalf("stats after timeout: %+v", snap)
	}
}

// TestBatchEndpoint drives a population through /v1/batch: results come
// back in input order, and a loop whose body duplicates an earlier one
// (under a different name — addresses are name-independent) reuses its
// compilation instead of repeating it.
func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultBackend: "list"})
	loops := ir.ExampleLoops()[:3]
	clone := *loops[0]
	clone.Name = "same-body-different-name"
	batch := BatchRequest{Loops: append(append([]*ir.Loop{}, loops...), &clone), MachineName: "paper-4cluster"}
	body, _ := json.Marshal(batch)

	var resp BatchResponse
	if code, _ := post(t, ts.URL, "/v1/batch", body, &resp); code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	if resp.OK != 4 || resp.Failed != 0 || len(resp.Results) != 4 {
		t.Fatalf("batch outcome: %+v", resp)
	}
	for i, want := range []string{loops[0].Name, loops[1].Name, loops[2].Name, clone.Name} {
		if resp.Results[i].Loop != want {
			t.Fatalf("results out of order: %v", resp.Results)
		}
	}
	// Items 0 and 3 share a body and are dispatched concurrently, so
	// either may lead. Exactly one compiles; the other is served from
	// the cache or collapsed onto the leader.
	first, dup := resp.Results[0].Result, resp.Results[3].Result
	compiled := func(r *CompileResponse) bool { return !r.Cached && !r.Coalesced }
	if compiled(first) == compiled(dup) {
		t.Fatalf("duplicate bodies: want exactly one compiled, got item 0 %+v, item 3 %+v", first, dup)
	}
	if snap := s.Stats(); snap.Compilations != 3 || snap.Requests != 4 {
		t.Fatalf("batch stats: %+v", snap)
	}
}

// TestBadRequests sweeps the 400 surface: malformed JSON, a body with
// unknown fields, a missing machine, an unknown named machine, an
// ambiguous machine spec, an invalid inline machine, an invalid loop
// and an unknown backend all fail fast with a JSON error.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	valid := ir.ExampleLoops()[0]
	badLoop := &ir.Loop{Name: "bad", Instrs: []*ir.Instruction{{ID: 5, Op: "x", Class: machine.ClassALU}}}
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"loop": {`},
		{"unknown field", `{"lop": {}}`},
		{"no loop", `{"machine_name": "unified"}`},
		{"no machine", mustBody(t, CompileRequest{Loop: valid})},
		{"unknown machine", mustBody(t, CompileRequest{Loop: valid, MachineName: "cray"})},
		{"ambiguous machine", mustBody(t, CompileRequest{Loop: valid, Machine: machine.Unified(), MachineName: "unified"})},
		{"invalid inline machine", `{"loop": ` + mustJSON(t, valid) + `, "machine": {"name": "m"}}`},
		{"invalid loop", mustBody(t, CompileRequest{Loop: badLoop, MachineName: "unified"})},
		{"unknown backend", mustBody(t, CompileRequest{Loop: valid, MachineName: "unified", Backend: "smt"})},
	}
	for _, tc := range cases {
		var errBody errorResponse
		code, _ := post(t, ts.URL, "/v1/compile", []byte(tc.body), &errBody)
		if code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d (%+v)", tc.name, code, errBody)
		}
		if errBody.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func mustBody(t *testing.T, req CompileRequest) string { return mustJSON(t, req) }

// TestConcurrentMixedLoad floods the server with a mixed population
// from many goroutines — duplicates, distinct loops, both machines —
// and checks conservation: every request is accounted for exactly once
// and compilations never exceed the distinct problem count. Primarily a
// -race workout for the cache/singleflight/queue interplay.
func TestConcurrentMixedLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultBackend: "list", Workers: 4})
	loops := gen.Corpus(17, 6)
	machines := []string{"unified", "paper-4cluster"}
	const goroutines = 16
	const perG = 12
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				l := loops[(gi+k)%len(loops)]
				mn := machines[(gi*perG+k)%len(machines)]
				var resp CompileResponse
				code, _ := post(t, ts.URL, "/v1/compile", compileBody(t, l, mn, ""), &resp)
				if code == http.StatusOK {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(gi)
	}
	wg.Wait()
	snap := s.Stats()
	total := int64(goroutines * perG)
	if ok.Load()+failed.Load() != total || snap.Requests != total {
		t.Fatalf("request conservation: ok=%d failed=%d stats=%+v", ok.Load(), failed.Load(), snap)
	}
	if failed.Load() != 0 {
		t.Fatalf("unexpected failures under default config: %d", failed.Load())
	}
	distinct := int64(len(loops) * len(machines))
	if snap.Compilations > distinct {
		t.Fatalf("compiled %d > %d distinct problems — cache or singleflight leaking", snap.Compilations, distinct)
	}
	if snap.Hits+snap.Misses+snap.Coalesced != total {
		t.Fatalf("lookup conservation: %+v", snap)
	}
}
