// Package serve is the scheduling service: an HTTP/JSON front-end over
// internal/core that turns the batch pipeline into a long-running,
// planet-scale-shaped server. Scheduling is a pure function of (loop,
// machine, options), so the server is organised around a
// content-addressed result cache (pkg/canon): a request first consults
// an LRU of finished artifacts, then collapses onto any in-flight
// identical compilation (singleflight), and only then occupies one of a
// bounded set of compile slots. Admission beyond a configured queue
// depth is shed with 429 + Retry-After rather than buffered — the
// backpressure contract that keeps tail latency bounded — and every
// compilation runs under a per-request deadline that cancels the
// in-flight II search through context plumbing (core.CompileSafeWith →
// sched.Request.Ctx). Counters for all of it are exposed in Prometheus
// text format on /v1/statsz.
//
// Endpoints:
//
//	POST /v1/compile  one loop, inline or named machine description
//	POST /v1/batch    a loop population through the same pool
//	GET  /v1/healthz  liveness
//	GET  /v1/statsz   Prometheus-style counters and latency quantiles
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/paper-repo-growth/mirs/internal/core"
	"github.com/paper-repo-growth/mirs/pkg/canon"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
	"github.com/paper-repo-growth/mirs/pkg/sched"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Backends are the schedulers the server offers; nil means the core
	// registry (list + mirs).
	Backends []sched.Scheduler
	// DefaultBackend is used when a request names none; empty means
	// "mirs" (the paper's backend) when registered, else the first.
	DefaultBackend string
	// Machines are the named machine descriptions requests may refer to
	// instead of inlining one; nil means the canned trio (unified,
	// paper-4cluster, tight).
	Machines map[string]*machine.Machine
	// Workers bounds concurrent compilations; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds compile admissions (queued + running leaders);
	// beyond it requests are shed with 429. <= 0 means 4x workers, at
	// least 64. Cache hits and singleflight joiners bypass the queue.
	QueueDepth int
	// CacheSize bounds the LRU schedule cache in entries; <= 0 means
	// 4096.
	CacheSize int
	// Timeout is the per-request compile budget (queue wait included);
	// <= 0 means 15s.
	Timeout time.Duration
	// BeforeCompile, when set, runs on the singleflight leader after it
	// acquired a compile slot and before the compilation starts. It
	// exists for tests and the load-test harness, which use it to hold
	// a compilation in flight deterministically. Production servers
	// leave it nil.
	BeforeCompile func(canon.Address)
	// Logger receives one structured access record per request (method,
	// path, status, duration, trace ID) plus lifecycle events; nil
	// discards them. The msched CLI wires a text handler on stdout.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler. Off by default: profiling endpoints are opt-in
	// on explicitly trusted listeners only.
	EnablePprof bool
}

// Server is one scheduling service instance. Create with New; serve its
// Handler with net/http.
type Server struct {
	cfg      Config
	backends map[string]sched.Scheduler
	machines map[string]*machine.Machine
	cache    *lruCache
	slots    chan struct{}
	st       stats
	log      *slog.Logger

	sfMu  sync.Mutex
	calls map[canon.Address]*call
}

// call is one in-flight compilation the singleflight layer shares:
// joiners wait on done and read art/herr afterwards.
type call struct {
	done chan struct{}
	art  *artifact
	herr *httpError
}

// httpError pairs a client-visible message with its HTTP status.
type httpError struct {
	status int
	msg    string
}

// New builds a Server from cfg, applying defaults and validating the
// backend and machine registries.
func New(cfg Config) (*Server, error) {
	if cfg.Backends == nil {
		cfg.Backends = core.Backends()
	}
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("serve: no backends")
	}
	backends := make(map[string]sched.Scheduler, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b == nil || b.Name() == "" {
			return nil, fmt.Errorf("serve: nil or unnamed backend")
		}
		if _, dup := backends[b.Name()]; dup {
			return nil, fmt.Errorf("serve: duplicate backend %q", b.Name())
		}
		backends[b.Name()] = b
	}
	if cfg.DefaultBackend == "" {
		if _, ok := backends["mirs"]; ok {
			cfg.DefaultBackend = "mirs"
		} else {
			cfg.DefaultBackend = cfg.Backends[0].Name()
		}
	}
	if _, ok := backends[cfg.DefaultBackend]; !ok {
		return nil, fmt.Errorf("serve: default backend %q not registered", cfg.DefaultBackend)
	}
	if cfg.Machines == nil {
		cfg.Machines = map[string]*machine.Machine{
			"unified":        machine.Unified(),
			"paper-4cluster": machine.Paper4Cluster(),
			"tight":          machine.Tight(),
		}
	}
	for name, m := range cfg.Machines {
		if m == nil {
			return nil, fmt.Errorf("serve: nil machine registered as %q", name)
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("serve: machine %q: %w", name, err)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
		if cfg.QueueDepth < 64 {
			cfg.QueueDepth = 64
		}
	}
	if cfg.QueueDepth < cfg.Workers {
		// A queue shallower than the pool would shed requests while
		// slots idle; depth is defined to include running leaders.
		cfg.QueueDepth = cfg.Workers
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 15 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	s := &Server{
		cfg:      cfg,
		backends: backends,
		machines: cfg.Machines,
		cache:    newLRUCache(cfg.CacheSize),
		slots:    make(chan struct{}, cfg.Workers),
		calls:    map[canon.Address]*call{},
		log:      log,
	}
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	s.st.initBackends(names)
	return s, nil
}

// Stats returns a point-in-time snapshot of the server counters.
func (s *Server) Stats() Snapshot {
	snap := s.st.snapshot()
	snap.CacheEntries = int64(s.cache.len())
	snap.CacheEvictions = s.cache.evicted()
	return snap
}

// MachineNames returns the sorted names of the registered canned
// machines — what a CompileRequest.MachineName may reference.
func (s *Server) MachineNames() []string {
	names := make([]string, 0, len(s.machines))
	for name := range s.machines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CompileRequest is the body of POST /v1/compile: one loop and either
// an inline machine description or the name of a registered one.
type CompileRequest struct {
	// Loop is the loop body in the ir JSON encoding (as emitted by
	// `msched gen -json`).
	Loop *ir.Loop `json:"loop"`
	// Machine inlines a full machine description for this request.
	// Exactly one of Machine and MachineName must be set.
	Machine *machine.Machine `json:"machine,omitempty"`
	// MachineName names a server-registered machine ("unified",
	// "paper-4cluster", "tight" by default).
	MachineName string `json:"machine_name,omitempty"`
	// Backend names the scheduler backend; empty means the server
	// default.
	Backend string `json:"backend,omitempty"`
}

// CompileResponse is the body of a successful compilation (or cache
// hit): the request's own labels plus the content-addressed artifact.
type CompileResponse struct {
	// Address is the content address (pkg/canon) the result is cached
	// under.
	Address string `json:"address"`
	// Cached reports the result came from the LRU; Coalesced that it
	// was shared from another request's in-flight compilation.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Loop, Backend and Machine echo the request's labels.
	Loop    string `json:"loop"`
	Backend string `json:"backend"`
	Machine string `json:"machine"`
	// Scheduling quality: the initiation interval against its lower
	// bound, steady-state pressure, the MVE unroll factor, whether the
	// pressure fits the register files, and spill traffic.
	II          int  `json:"ii"`
	MII         int  `json:"mii"`
	MaxLive     int  `json:"max_live"`
	Unroll      int  `json:"unroll"`
	Fits        bool `json:"fits"`
	SpillLoads  int  `json:"spill_loads,omitempty"`
	SpillStores int  `json:"spill_stores,omitempty"`
	// Stats carries the backend's Schedule.Stats counters verbatim.
	Stats map[string]int `json:"stats,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: a loop population
// compiled against one machine and backend through the same cache,
// singleflight and pool as single requests.
type BatchRequest struct {
	// Loops is the population; names must be non-empty but need not be
	// unique (identical bodies coalesce regardless).
	Loops []*ir.Loop `json:"loops"`
	// Machine / MachineName / Backend as in CompileRequest.
	Machine     *machine.Machine `json:"machine,omitempty"`
	MachineName string           `json:"machine_name,omitempty"`
	Backend     string           `json:"backend,omitempty"`
}

// BatchItem is one loop's outcome inside a BatchResponse.
type BatchItem struct {
	// Loop echoes the item's loop name.
	Loop string `json:"loop"`
	// Result is set on success.
	Result *CompileResponse `json:"result,omitempty"`
	// Error and Status report the item's failure the same way the
	// single endpoint would have (429 shed, 504 timeout, ...).
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
}

// BatchResponse is the body of POST /v1/batch.
type BatchResponse struct {
	// Results holds one item per input loop, in input order.
	Results []BatchItem `json:"results"`
	// OK and Failed count the split.
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

// errorResponse is the JSON error body every non-2xx response carries.
type errorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// Handler returns the server's HTTP handler: the API mux wrapped in the
// telemetry middleware (per-request trace IDs echoed in X-Trace-Id,
// structured access logging), with the pprof endpoints mounted when
// Config.EnablePprof is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.withTelemetry(mux)
}

// maxBodyBytes bounds request bodies; generated loops are a few KB, so
// this fits any realistic batch while stopping memory-exhaustion bodies.
const maxBodyBytes = 16 << 20

// decodeJSON strictly decodes the request body into dst.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

// writeJSON emits one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeError emits the error body, adding Retry-After on 429 so
// well-behaved clients back off for the queue to drain.
func writeError(w http.ResponseWriter, herr *httpError) {
	if herr.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, herr.status, errorResponse{Error: herr.msg})
}

// handleCompile serves POST /v1/compile.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, &httpError{http.StatusBadRequest, err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	resp, herr := s.compileOne(ctx, &req)
	if herr != nil {
		writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /v1/batch: it fans the population out over at
// most Workers concurrent items, each of which walks the identical
// cache → singleflight → pool path as a single request with its own
// deadline, and reports per-item outcomes in input order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, &httpError{http.StatusBadRequest, err.Error()})
		return
	}
	if len(req.Loops) == 0 {
		writeError(w, &httpError{http.StatusBadRequest, "batch with no loops"})
		return
	}
	items := make([]BatchItem, len(req.Loops))
	idx := make(chan int)
	fan := s.cfg.Workers
	if fan > len(req.Loops) {
		fan = len(req.Loops)
	}
	var wg sync.WaitGroup
	for i := 0; i < fan; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				one := CompileRequest{
					Loop:        req.Loops[i],
					Machine:     req.Machine,
					MachineName: req.MachineName,
					Backend:     req.Backend,
				}
				name := ""
				if req.Loops[i] != nil {
					name = req.Loops[i].Name
				}
				ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
				resp, herr := s.compileOne(ctx, &one)
				cancel()
				if herr != nil {
					items[i] = BatchItem{Loop: name, Error: herr.msg, Status: herr.status}
				} else {
					items[i] = BatchItem{Loop: name, Result: resp}
				}
			}
		}()
	}
	for i := range req.Loops {
		idx <- i
	}
	close(idx)
	wg.Wait()
	out := BatchResponse{Results: items}
	for i := range items {
		if items[i].Result != nil {
			out.OK++
		} else {
			out.Failed++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleStatsz serves GET /v1/statsz in Prometheus text format.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(s.prometheusText()))
}

// compileOne walks one compile unit through validation, the cache, the
// singleflight layer and the bounded pool. It returns either a response
// or an httpError carrying the status the caller should emit.
func (s *Server) compileOne(ctx context.Context, req *CompileRequest) (*CompileResponse, *httpError) {
	begin := time.Now()
	defer func() { s.st.latency.observe(time.Since(begin).Microseconds()) }()
	s.st.requests.Add(1)

	if req.Loop == nil {
		return nil, &httpError{http.StatusBadRequest, "request has no loop"}
	}
	if err := req.Loop.Validate(); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	var m *machine.Machine
	switch {
	case req.Machine != nil && req.MachineName != "":
		return nil, &httpError{http.StatusBadRequest, "machine and machine_name are mutually exclusive"}
	case req.Machine != nil:
		if err := req.Machine.Validate(); err != nil {
			return nil, &httpError{http.StatusBadRequest, err.Error()}
		}
		m = req.Machine
	case req.MachineName != "":
		var ok bool
		if m, ok = s.machines[req.MachineName]; !ok {
			return nil, &httpError{http.StatusBadRequest,
				fmt.Sprintf("unknown machine %q (registered: %s)", req.MachineName, strings.Join(s.machineNames(), ", "))}
		}
	default:
		return nil, &httpError{http.StatusBadRequest, "request needs machine or machine_name"}
	}
	beName := req.Backend
	if beName == "" {
		beName = s.cfg.DefaultBackend
	}
	be, ok := s.backends[beName]
	if !ok {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("unknown backend %q", beName)}
	}

	addr := canon.Key(req.Loop, m, canon.Options{Backend: beName})
	respond := func(art *artifact, cached, coalesced bool) *CompileResponse {
		return &CompileResponse{
			Address: addr.String(), Cached: cached, Coalesced: coalesced,
			Loop: req.Loop.Name, Backend: beName, Machine: m.Name,
			II: art.II, MII: art.MII, MaxLive: art.MaxLive, Unroll: art.Unroll,
			Fits: art.Fits, SpillLoads: art.SpillLoads, SpillStores: art.SpillStores,
			Stats: art.Stats,
		}
	}

	if art, hit := s.cache.get(addr); hit {
		s.st.hits.Add(1)
		return respond(art, true, false), nil
	}

	// Singleflight: join any in-flight identical compilation; the
	// cache is re-checked under the lock so a compilation finishing
	// between the lookup above and here is found rather than repeated.
	s.sfMu.Lock()
	if c, inflight := s.calls[addr]; inflight {
		s.sfMu.Unlock()
		s.st.coalesced.Add(1)
		s.st.waiters.Add(1)
		defer s.st.waiters.Add(-1)
		select {
		case <-c.done:
			if c.herr != nil {
				return nil, c.herr
			}
			return respond(c.art, false, true), nil
		case <-ctx.Done():
			s.st.timeouts.Add(1)
			return nil, &httpError{http.StatusGatewayTimeout,
				fmt.Sprintf("deadline fired waiting on in-flight compilation %s", addr.Short())}
		}
	}
	if art, hit := s.cache.get(addr); hit {
		s.sfMu.Unlock()
		s.st.hits.Add(1)
		return respond(art, true, false), nil
	}
	c := &call{done: make(chan struct{})}
	s.calls[addr] = c
	s.sfMu.Unlock()
	s.st.misses.Add(1)

	art, herr := s.lead(ctx, be, req.Loop, m, addr)
	s.sfMu.Lock()
	c.art, c.herr = art, herr
	delete(s.calls, addr)
	s.sfMu.Unlock()
	close(c.done)
	if herr != nil {
		return nil, herr
	}
	return respond(art, false, false), nil
}

// lead runs the singleflight leader's side of one compilation: bounded
// admission, slot acquisition, the compile itself, and the cache fill.
func (s *Server) lead(ctx context.Context, be sched.Scheduler, l *ir.Loop, m *machine.Machine, addr canon.Address) (*artifact, *httpError) {
	// Admission: inflight counts leaders queued or running; past the
	// configured depth the request is shed immediately — the contract
	// that bounds queueing delay — and Retry-After tells the client
	// when to try again.
	if n := s.st.inflight.Add(1); n > int64(s.cfg.QueueDepth) {
		s.st.inflight.Add(-1)
		s.st.shed.Add(1)
		return nil, &httpError{http.StatusTooManyRequests,
			fmt.Sprintf("compile queue full (%d in flight)", n-1)}
	}
	defer s.st.inflight.Add(-1)

	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.st.timeouts.Add(1)
		return nil, &httpError{http.StatusGatewayTimeout, "deadline fired waiting for a compile slot"}
	}
	defer func() { <-s.slots }()

	if s.cfg.BeforeCompile != nil {
		s.cfg.BeforeCompile(addr)
	}
	// The search-event counters ride along as the compilation's recorder
	// (atomic increments, no buffering); the compile-phase clock feeds
	// the per-backend latency histogram whatever the outcome.
	compileBegin := time.Now()
	r, err := core.CompileSafeWith(ctx, be, l, m, core.Opts{Recorder: &s.st.search})
	if h := s.st.compileLat[be.Name()]; h != nil {
		h.observe(time.Since(compileBegin).Microseconds())
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.st.timeouts.Add(1)
			return nil, &httpError{http.StatusGatewayTimeout,
				fmt.Sprintf("compilation of %q cancelled: %v", l.Name, firstLine(err.Error()))}
		}
		s.st.errors.Add(1)
		return nil, &httpError{http.StatusInternalServerError, firstLine(err.Error())}
	}
	art := &artifact{
		II:      r.Schedule.II,
		MII:     r.MII.MII,
		MaxLive: r.Pressure.MaxLive,
		Unroll:  r.Expanded.Unroll,
		Fits:    r.Pressure.Fits(),
	}
	if st := r.Schedule.Stats; st != nil {
		art.SpillStores = st["spill_stores"]
		art.SpillLoads = st["spill_loads"]
		art.Stats = st
	}
	s.cache.add(addr, art)
	s.st.compilations.Add(1)
	return art, nil
}

// firstLine trims a multi-line error (panic stacks) for transport.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

// machineNames lists the registered machine names, sorted.
func (s *Server) machineNames() []string {
	names := make([]string, 0, len(s.machines))
	for n := range s.machines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
