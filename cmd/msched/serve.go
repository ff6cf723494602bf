package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/paper-repo-growth/mirs/internal/driver"
	"github.com/paper-repo-growth/mirs/internal/loadtest"
	"github.com/paper-repo-growth/mirs/internal/serve"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// cmdServe runs the scheduling service: an HTTP/JSON front-end over the
// same compile path `run` batches, with a content-addressed schedule
// cache, singleflight collapse and queue-depth load shedding. Every
// request is access-logged with a trace ID (echoed in X-Trace-Id), and
// SIGINT/SIGTERM drains in-flight compilations before exiting.
func cmdServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8097", "listen address")
	backend := fs.String("backend", "mirs", "default backend for requests that name none")
	workers := fs.Int("workers", 0, "concurrent compilations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "compile queue depth before shedding with 429 (0 = 4x workers)")
	cache := fs.Int("cache", 0, "schedule cache capacity in entries (0 = 4096)")
	timeout := fs.Duration("timeout", 15*time.Second, "per-request compile budget")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain deadline for in-flight requests")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	machineFiles := fs.String("machine-file", "", "comma-separated machine JSON files to serve alongside the canned set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stdout, nil))
	cfg := serve.Config{
		DefaultBackend: *backend,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		Timeout:        *timeout,
		Logger:         logger,
		EnablePprof:    *pprofOn,
	}
	if *machineFiles != "" {
		cfg.Machines = map[string]*machine.Machine{
			"unified":        machine.Unified(),
			"paper-4cluster": machine.Paper4Cluster(),
			"tight":          machine.Tight(),
		}
		for _, path := range strings.Split(*machineFiles, ",") {
			m, err := machineFromFile(strings.TrimSpace(path))
			if err != nil {
				fmt.Fprintln(stderr, "msched serve:", err)
				return 1
			}
			cfg.Machines[m.Name] = m
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "msched serve:", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "msched serve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "msched serve: listening on http://%s (backend %s, machines %s)\n",
		ln.Addr(), *backend, strings.Join(srv.MachineNames(), ", "))
	if *pprofOn {
		fmt.Fprintf(stdout, "msched serve: pprof at http://%s/debug/pprof/\n", ln.Addr())
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Graceful(ctx, hs, ln, *drain); err != nil {
		fmt.Fprintln(stderr, "msched serve:", err)
		return 1
	}
	return 0
}

// cmdLoadtest runs the deterministic closed-loop load harness against
// an in-process server and emits / gates its report, mirroring how
// `compare` gates quality rows.
func cmdLoadtest(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msched loadtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "generator master seed")
	requests := fs.Int("requests", 400, "total warm+steady requests")
	unique := fs.Int("unique", 20, "distinct loops in the population")
	clients := fs.Int("clients", 8, "closed-loop clients in the steady phase")
	burst := fs.Int("burst", 8, "concurrent identical requests in the singleflight phase")
	backend := fs.String("backend", "mirs", "scheduler backend")
	machineName := fs.String("machine", "unified", "machine configuration")
	workers := fs.Int("workers", 0, "server compile workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "server queue depth (0 = 4x workers)")
	cache := fs.Int("cache", 0, "server cache capacity (0 = fits the population)")
	timeout := fs.Duration("timeout", driver.DefaultTimeout, "per-request compile budget")
	timing := fs.Bool("timing", false, "include wall-clock fields (breaks byte-determinism)")
	out := fs.String("o", "", "write the JSON report to this file")
	gate := fs.String("gate", "", "gate the report against this thresholds file (exit 1 on violation)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := loadtest.Run(loadtest.Options{
		Seed:        *seed,
		Requests:    *requests,
		Unique:      *unique,
		Clients:     *clients,
		Burst:       *burst,
		Backend:     *backend,
		MachineName: *machineName,
		Workers:     *workers,
		QueueDepth:  *queue,
		CacheSize:   *cache,
		Timeout:     *timeout,
		Timing:      *timing,
	})
	if err != nil {
		fmt.Fprintln(stderr, "msched loadtest:", err)
		return 1
	}
	fmt.Fprintf(stdout, "loadtest %s on %s/%s: %d requests over %d loops, hit rate %.2f%%, %d compilations, burst %d -> %d compilation(s)\n",
		rep.Corpus, rep.Backend, rep.Machine, rep.Requests, rep.Unique,
		100*rep.HitRate, rep.Compilations, rep.BurstRequests, rep.BurstCompilations)
	if rep.Failed > 0 || rep.Shed > 0 {
		fmt.Fprintf(stdout, "  %d failed, %d shed\n", rep.Failed, rep.Shed)
	}
	if rep.ElapsedSeconds > 0 {
		fmt.Fprintf(stdout, "  wall clock %.2fs, %.0f requests/sec, p50 %dus p99 %dus\n",
			rep.ElapsedSeconds, rep.RequestsPerSec, rep.P50Micros, rep.P99Micros)
	}
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintln(stderr, "msched loadtest:", err)
			return 1
		}
	}
	if *gate != "" {
		thr, err := loadtest.ReadThresholds(*gate)
		if err != nil {
			fmt.Fprintln(stderr, "msched loadtest:", err)
			return 1
		}
		if violations := loadtest.Check(rep, thr); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(stderr, "VIOLATION:", v)
			}
			fmt.Fprintf(stderr, "msched loadtest: %d violation(s) vs %s\n", len(violations), *gate)
			return 1
		}
		fmt.Fprintf(stdout, "load gate clean vs %s\n", *gate)
	}
	return 0
}

// machineFromFile loads and validates one machine description from a
// JSON file, wrapping errors with the path so a malformed file fails
// with a clear message instead of a panic or an empty report.
func machineFromFile(path string) (*machine.Machine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("machine file %s: %w", path, err)
	}
	m, err := machine.FromJSON(data)
	if err != nil {
		return nil, fmt.Errorf("machine file %s: %w", path, err)
	}
	return m, nil
}
