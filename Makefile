# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race race-short bench bench-smoke speedup-smoke trace-smoke trace-regression serve-smoke churn-smoke metrics-smoke vet check fmt fmt-check repro repro-quick examples clean

all: check test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI-sized race lane: -short trims the exhaustive/zoo suites to keep
# the race detector's ~10x slowdown affordable.
race-short:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for real measurements (the CI lane).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Parallel-efficiency smoke: sweep procs 1 vs 2 vs 4 at reduced scale and
# gate decomp-arb-hybrid-CC with tracestat's efficiency floor. Efficiency
# is speedup over min(procs, NumCPU), so the gate is meaningful on any CI
# host: it trips when adding workers makes the run substantially slower
# than serial (a parallel-efficiency regression), never on absolute speed.
speedup-smoke:
	$(GO) run ./cmd/bench -experiment speedup -procs 1,2,4 -scale 0.1 -json /tmp/parconn-speedup.json
	$(GO) run ./cmd/tracestat speedup /tmp/parconn-speedup.json

# Refresh the committed speedup curve (run on a quiet machine).
BENCH_speedup.json:
	$(GO) run ./cmd/bench -experiment speedup -procs 1,2,4 -json $@

# Record an observability trace of one real run, then validate it against
# the JSONL schema (run/level bracketing, monotone edge decay, known phases).
trace-smoke:
	$(GO) run ./cmd/connect -gen rmat -scale 14 -trace /tmp/parconn-trace.jsonl
	$(GO) run ./cmd/connect -validate-trace /tmp/parconn-trace.jsonl

# Record a fresh trace of the standard rMat-14 run and gate it against the
# committed baseline with cmd/tracestat. The tolerance and floor are
# deliberately loose: this lane runs on arbitrary shared CI machines and
# should only trip on order-of-magnitude phase blowups, not scheduler noise
# (tracestat's default 1.5x is for same-machine comparisons).
trace-regression:
	$(GO) run ./cmd/connect -gen rmat -scale 14 -seed 42 -trace /tmp/parconn-trace-regression.jsonl
	$(GO) run ./cmd/tracestat diff -tol 8 -floor 100ms testdata/trace-baseline-rmat14.jsonl /tmp/parconn-trace-regression.jsonl

# Refresh the committed trace-regression baseline (run on a quiet machine).
testdata/trace-baseline-rmat14.jsonl:
	$(GO) run ./cmd/connect -gen rmat -scale 14 -seed 42 -trace $@

# Serving smoke: boot connserve on an ephemeral port, wait for the
# readiness gate, probe each query endpoint, drain.
serve-smoke:
	$(GO) test -run 'TestServeLifecycle' -count=1 ./cmd/connserve

# Churn smoke: boot connserve with the incremental layer through the
# insert lifecycle test.
churn-smoke:
	$(GO) test -run 'TestInsertLifecycle' -count=1 ./cmd/connserve

# Metrics smoke: boot connserve with span sampling on every request, drive
# each endpoint class (queries, batch, a 4xx, an insert), and assert the
# /metrics exposition carries the request counters, error taxonomy, latency
# histograms (whose counts match /v1/stats), and runtime series — plus a
# JSONL span trace that validates against the schema.
metrics-smoke:
	$(GO) test -run 'TestMetricsEndpoint' -count=1 ./cmd/connserve

# parconnvet fails on active findings AND on stale //parconn:allow
# suppressions (an allow that matches no finding is itself a finding).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/parconnvet ./...

# Machine-readable findings report (what CI uploads as an artifact) and the
# inferred hot-path/parallel-context sets with per-function provenance.
vet-json:
	$(GO) run ./cmd/parconnvet -json /tmp/parconnvet-findings.json ./... ; \
	cat /tmp/parconnvet-findings.json

vet-graph:
	$(GO) run ./cmd/parconnvet -graph - ./...

# Everything that must pass before a change lands: formatting, go vet, and
# the repository's own static analyses (see DESIGN.md "Correctness tooling").
check: fmt-check vet

fmt:
	gofmt -w $$(find . -name '*.go' -not -path './results_csv/*')

fmt-check:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './results_csv/*')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Regenerate every table/figure of the paper (see EXPERIMENTS.md).
repro:
	$(GO) run ./cmd/bench -experiment all -scale 1 -trials 3 -csv results_csv | tee results_full.txt

# Quick end-to-end pass at tiny scale (~seconds).
repro-quick:
	$(GO) run ./cmd/bench -experiment all -scale 0.01 -trials 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/imagesegment
	$(GO) run ./examples/netreliability
	$(GO) run ./examples/streaming

clean:
	rm -rf results_csv
