# Convenience targets for the workflows README.md documents. Everything
# here is a thin wrapper over go / msched invocations, so CI and humans
# run the identical commands.

.PHONY: all build test race bench bench-placement profile profile-spill profile-exec profile-scale compare baseline serve loadtest trace exec lint fmt sloc

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Full-pipeline benchmark (graph build + schedule + analysis + MVE) with
# allocation counts; writes BENCH_results.json next to the package.
bench:
	go test -run '^$$' -bench '^(BenchmarkCompile)$$' -benchmem ./internal/core/

# Placement-path-only benchmark: graph and MII prebuilt, so allocs/op
# isolates the scheduler hot path the zero-allocation claim covers.
bench-placement:
	go test -run '^$$' -bench BenchmarkPlacement -benchmem ./internal/core/

# Capture CPU + allocation pprof profiles from the benchmarks; inspect
# with `go tool pprof bench_cpu.pprof` (see README "Performance &
# profiling").
profile:
	go test -run '^$$' -bench '^(BenchmarkCompile|BenchmarkPlacement)$$' -benchmem \
		-cpuprofile bench_cpu.pprof -memprofile bench_mem.pprof ./internal/core/
	@echo "profiles: bench_cpu.pprof bench_mem.pprof (go tool pprof <file>)"

# Profile the spill-heavy tail — storm and pressure loops x mirs x
# tight, where every candidate II spills — through the real batch
# driver on one worker; inspect with `go tool pprof -top spill_cpu.pprof`.
profile-spill:
	go run ./cmd/msched run -seed 1 -n 40 -corner storm,pressure -backends mirs -machines tight \
		-workers 1 -cpuprofile spill_cpu.pprof -memprofile spill_mem.pprof
	@echo "profiles: spill_cpu.pprof spill_mem.pprof (go tool pprof <file>)"

# Profile the common case — the perfbench fit-exec population: 250
# generated loops x list,mirs x unified,paper-4cluster, every schedule
# emitted and differentially executed — where emission and the pkg/vm
# oracle show next to scheduling; one worker.
profile-exec:
	go run ./cmd/msched run -exec -seed 1 -n 250 -backends list,mirs -machines unified,paper-4cluster \
		-workers 1 -cpuprofile exec_cpu.pprof -memprofile exec_mem.pprof
	@echo "profiles: exec_cpu.pprof exec_mem.pprof (go tool pprof <file>)"

# Profile the large-loop path — the first 6 loops of the perfbench scale
# workload (96–128 ops) x mirs x paper-4cluster, through the full
# pipeline (BenchmarkCompileScale in internal/core); inspect with
# `go tool pprof -top scale_cpu.pprof`.
profile-scale:
	go test -run '^$$' -bench '^BenchmarkCompileScale$$' -benchmem \
		-cpuprofile scale_cpu.pprof -memprofile scale_mem.pprof ./internal/core/
	@echo "profiles: scale_cpu.pprof scale_mem.pprof (go tool pprof <file>)"

# Gate current quality (ΣII, ΣMaxLive) and throughput (allocs/op)
# against the committed baseline — the same command CI runs.
compare:
	go run ./cmd/msched compare

# Refresh BENCH_baseline.json after an intentional quality or perf
# change; commit the result.
baseline:
	go run ./cmd/msched compare -update-baseline

# Run the HTTP/JSON scheduling service locally (content-addressed
# cache, singleflight collapse, 429 load shedding); see README
# "Serving" for the curl quickstart.
serve:
	go run ./cmd/msched serve

# Deterministic closed-loop load test against an in-process server,
# gated against the committed thresholds — the same command CI runs.
loadtest:
	go run ./cmd/msched loadtest -o loadtest.json -gate LOADTEST_baseline.json

# Explain one schedule: compile a register-starved seeded loop with the
# flight recorder attached and print the "why this II" report (see
# README "Observability"; -chrome/-profile export the raw artifacts).
trace:
	go run ./cmd/msched trace -seed 1 -i 7 -machine tight

# Differentially execute the whole generated sweep — emitted VLIW
# bundles vs the sequential reference semantics — with the same grid
# and seed the CI exec-verify gate uses; exits non-zero on any
# mismatch (see README "Execution & verification").
exec:
	go run ./cmd/msched run -exec -seed 1 -n 120 -backends all -machines all -strict

lint:
	golangci-lint run

# Non-test Go source lines per package, then the total. perfbench/ is a
# separate module, so ./... leaves it out.
sloc:
	@go list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		awk '{n = 0; for (i = 2; i <= NF; i++) { while ((getline line < $$i) > 0) n++; close($$i) } \
		sub(/^[^\/]*\/[^\/]*\/[^\/]*\/?/, "", $$1); printf "%6d %s\n", n, ($$1 == "" ? "." : $$1); t += n } \
		END {printf "%6d total\n", t}'

fmt:
	gofmt -l -w .
