# Developer entry points. `make check` is the pre-commit gate: vet, build,
# the full test suite at one and two cores (so a determinism defect that
# only shows when work runs in parallel fails the gate), and the
# race-detector suite over the packages that fan work across
# goroutines (eval experiment generators, the pooled SSIM comparer, the
# parallel cutoff preprocessing, and the live runtime stack: wall clock,
# server lifecycle, transport framing, and the sim-vs-live loopback e2e)
# or share atomic state (the obs metrics registry, the cache and
# prefetcher once instrumented into a shared registry).

GO ?= go

.PHONY: check vet build test race bench bench-diff smoke loadtest lines

check: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -cpu 1,2 ./...

race:
	$(GO) test -race ./internal/eval/... ./internal/ssim/... ./internal/cutoff/... \
		./internal/runtime/... ./internal/server/... ./internal/transport/... \
		./internal/cache/... ./internal/prefetch/... ./internal/obs/... \
		./internal/par/... ./internal/render/... ./internal/loadgen/... \
		./internal/codec/... ./internal/sched/... ./internal/cluster/... \
		./internal/netsim/...

# End-to-end smoke: build both binaries, run a short live session over a
# real socket on localhost, and check the client printed a report.
smoke:
	./scripts/smoke.sh

# Hot-path micro-benchmarks (ssim comparer, render LUT, codec, parallel helper).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/ssim/... ./internal/render/... ./internal/codec/...

# Multi-player load harness against an in-process server: throughput,
# latency percentiles, and the frame-store hit mix at a glance.
loadtest:
	$(GO) run ./cmd/loadgen -game pool -players 16 -duration 5s

# Bench regression gate: compare two benchtab JSON reports' micro results,
# the deadline_ab compliance section, and the udp_vs_tcp datagram-path
# section (zero corrupt frames; push-hit ratio > 0 on the walk load).
# Usage: make bench-diff BENCH_OLD=BENCH_6.json BENCH_NEW=BENCH_7.json
BENCH_OLD ?= BENCH_6.json
BENCH_NEW ?= BENCH_7.json
bench-diff:
	$(GO) run ./scripts $(BENCH_OLD) $(BENCH_NEW)

# Go line counts per package: non-test and test lines (wc -l), the one
# source for the package inventory in DESIGN.md and the net-lines figures
# in CHANGES.md.
lines:
	@printf '%-34s %8s %8s\n' package non-test test
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		src=$$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		tst=$$(find $$dir -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-34s %8d %8d\n' $$pkg $$src $$tst; \
	done
