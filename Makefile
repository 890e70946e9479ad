# Tier-1 verification (see ROADMAP.md): build, vet, and the full test suite
# under the race detector — the engine is deliberately concurrent, so -race
# is part of the baseline, not an extra. The shutdown-race, single-flight,
# and worker-count-determinism regressions only manifest under -race, so
# tier1 delegates to tier1-race rather than running a raceless suite.
# Formatting drift fails tier 1 too; the file list comes from git so build
# caches such as .bench_build/ are never scanned. So does a differential
# oracle (the O(T) engine, the linear cluster scan, the linear balancers)
# named from a non-test file: the oracles live in _test.go files, and the
# shipped build carries no mode that selects them.
.PHONY: tier1
tier1: tier1-race

.PHONY: tier1-race
tier1-race:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	! git grep -n -F -e NewReferenceEngine -e NewReferenceCluster \
		-e newReferenceBalancer -e e.naive -e c.linear -e cfg.reference \
		-- '*.go' ':!*_test.go'
	go build ./...
	go vet ./...
	go test -race ./...
	go run ./cmd/fleet -bench micro-pauseprobe -replicas 1,2 -rates 1,2 \
		-lb round-robin,gc-aware -events 300 \
		-telemetry fleet-smoke.jsonl -trace-out fleet-smoke.trace.json \
		-timeline > /dev/null
	go run ./cmd/obsreport -fleet fleet-smoke.jsonl > /dev/null
	go run ./cmd/fleet -bench micro-pauseprobe -replicas 256 -lb gc-aware \
		-events 60 -trace-out fleet-smoke-256.trace.json > /dev/null
	rm -f fleet-smoke.jsonl fleet-smoke.trace.json fleet-smoke-256.trace.json

.PHONY: test
test:
	go test ./...

# Hot-path microbenchmarks: the scheduler (BenchmarkEngine*, internal/sim),
# the collector layer without a workload (BenchmarkCollectorPause,
# internal/gc: allocation and stop-the-world pauses over 12 mutators, one
# sub-benchmark per collector), the end-to-end invocation path (BenchmarkRunInvocation*, root package, one
# sub-benchmark per collector), the experiment engine's result cache (one fop
# LBO grid re-aggregated from a warm cache, BenchmarkEngineWarmCache, and
# simulated into a write-only one with the write-behind drain timed,
# BenchmarkEngineColdCache), the whole-suite batch-execution path
# (BenchmarkFullSuite, workers=1 vs workers=8), and the fleet layer
# (BenchmarkFleetSweep; BenchmarkFleetScale, the 16→1024 replica ladder whose
# 1024-replica rung the gate holds at 0 allocs/op — the driving loop must stay
# allocation-free at scale; and BenchmarkFleetTelemetry, which prices request
# tracing recorder-on vs -off and gates the disabled hooks at 0 allocs/op).
# FleetSweep and FleetTelemetry get their own -benchtime so each self-iterates
# to a stable ns/op instead of one cold N=1 sample (a single ~30ms sweep op
# varies ~30% run to run; 300ms amortizes it), while the minutes-scale
# FullSuite stays at -benchtime=1x and FleetScale and EngineColdCache at 3
# runs per sample.
# Each benchmark runs five times and benchjson records the per-metric median,
# so the committed BENCH_sim.json baseline is median-of-five — directly
# comparable to the median-of-five gate runs and robust to scheduler noise on
# loaded hosts.
.PHONY: bench
bench:
	( go test -run='^$$' -bench='BenchmarkEngine' -benchmem -benchtime=300ms \
		-count=5 ./internal/sim && \
	  go test -run='^$$' -bench='BenchmarkCollectorPause' -benchmem \
		-benchtime=300ms -count=5 ./internal/gc && \
	  go test -run='^$$' -bench='BenchmarkRunInvocation' -benchmem -count=5 . && \
	  go test -run='^$$' -bench='BenchmarkEngineWarmCache' -benchmem \
		-benchtime=300ms -count=5 . && \
	  go test -run='^$$' -bench='BenchmarkEngineColdCache' -benchmem \
		-benchtime=3x -count=5 . && \
	  go test -run='^$$' -bench='BenchmarkFullSuite' -benchtime=1x -count=5 . && \
	  go test -run='^$$' -bench='BenchmarkFleetSweep' -benchtime=300ms -count=5 \
		./internal/fleet && \
	  go test -run='^$$' -bench='BenchmarkFleetScale' -benchtime=3x -count=5 \
		./internal/fleet && \
	  go test -run='^$$' -bench='BenchmarkFleetTelemetry' -benchtime=200ms \
		-count=5 ./internal/fleet ) \
		| go run ./cmd/benchjson -out BENCH_sim.json

# Statistical perf-regression gate: run the hot-path microbenchmarks five
# times and compare the distributions against the committed BENCH_sim.json
# baseline with cmd/benchdiff (Mann-Whitney + median threshold, on ns/op,
# B/op and allocs/op). Fails on a statistically significant regression beyond
# 10% — and on ANY allocation where the baseline records zero. The scaling
# gate then re-reads the same captured output (no benchmarks re-run), so a
# whole-suite parallel-efficiency collapse fails bench-gate too.
.PHONY: bench-gate
bench-gate:
	( go test -run='^$$' -bench='BenchmarkEngine' -benchmem -benchtime=300ms \
		-count=5 ./internal/sim && \
	  go test -run='^$$' -bench='BenchmarkCollectorPause' -benchmem \
		-benchtime=300ms -count=5 ./internal/gc && \
	  go test -run='^$$' -bench='BenchmarkRunInvocation' -benchmem -count=5 . && \
	  go test -run='^$$' -bench='BenchmarkEngineWarmCache' -benchmem \
		-benchtime=300ms -count=5 . && \
	  go test -run='^$$' -bench='BenchmarkEngineColdCache' -benchmem \
		-benchtime=3x -count=5 . && \
	  go test -run='^$$' -bench='BenchmarkFullSuite' -benchtime=1x -count=5 . && \
	  go test -run='^$$' -bench='BenchmarkFleetSweep' -benchtime=300ms -count=5 \
		./internal/fleet && \
	  go test -run='^$$' -bench='BenchmarkFleetScale' -benchtime=3x -count=5 \
		./internal/fleet && \
	  go test -run='^$$' -bench='BenchmarkFleetTelemetry' -benchtime=200ms \
		-count=5 ./internal/fleet ) \
		| tee bench-gate.txt
	go run ./cmd/benchdiff -threshold 0.10 BENCH_sim.json bench-gate.txt
	go run ./cmd/benchjson -out /dev/null -scaling-min auto < bench-gate.txt > /dev/null

# Whole-suite scaling gate, standalone: run only BenchmarkFullSuite at
# workers ∈ {1, 8, NumCPU} and fail if the derived parallel efficiency
# (workers=1 ns ÷ workers=8 ns) falls below the host-scaled floor —
# max(0.9, 0.5·min(8, NumCPU)): an 8-core host demands ≥4x, a single core
# demands only not-regressing (it cannot speed up).
.PHONY: bench-scaling
bench-scaling:
	go test -run='^$$' -bench='BenchmarkFullSuite' -benchtime=1x -count=5 . \
		| go run ./cmd/benchjson -out /dev/null -scaling-min auto

# Native fuzzing of the decoders of bytes a run did not just write: the binary
# invocation cache record (FuzzDecodeInvocation), the JSON result and cache
# archives with their v1->v2 migration (FuzzLoadArchive), the JSONL telemetry
# stream (FuzzDecodeStream), unified-logging GC logs (FuzzParseAll) and the
# bench gate's inputs, BENCH_sim.json maps and go test -bench text
# (FuzzParse); and of the Chrome trace writer's integer number fast path
# against strconv (FuzzChromeNumber). go test -fuzz takes one target per run,
# so each gets its own fixed time budget. The committed seed corpora under
# testdata/fuzz also run as ordinary tests in tier1.
.PHONY: fuzz
fuzz:
	go test -run='^$$' -fuzz='^FuzzDecodeInvocation$$' -fuzztime=60s ./internal/persist
	go test -run='^$$' -fuzz='^FuzzLoadArchive$$' -fuzztime=60s ./internal/persist
	go test -run='^$$' -fuzz='^FuzzDecodeStream$$' -fuzztime=60s ./internal/obs
	go test -run='^$$' -fuzz='^FuzzParseAll$$' -fuzztime=60s ./internal/gclog
	go test -run='^$$' -fuzz='^FuzzChromeNumber$$' -fuzztime=60s ./internal/obs/traceview
	go test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=60s ./internal/obs/benchdiff

# CPU and heap profiles for the invocation hot path; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof -sample_index=alloc_objects
# mem.pprof`.
.PHONY: bench-profile
bench-profile:
	go test -run='^$$' -bench='BenchmarkRunInvocation' -benchmem \
		-cpuprofile cpu.pprof -memprofile mem.pprof .

# Figure/table regeneration benches (reduced sizes; minutes, not hours).
.PHONY: bench-figures
bench-figures:
	go test -bench=. -benchtime=1x -run='^$$' .
