# Tier-1 verification (see ROADMAP.md): build, vet, and the full test suite
# under the race detector — the engine is deliberately concurrent, so -race
# is part of the baseline, not an extra. The shutdown-race, single-flight,
# and worker-count-determinism regressions only manifest under -race, so
# tier1 delegates to tier1-race rather than running a raceless suite.
# Formatting drift fails tier 1 too; the file list comes from git so build
# caches such as .bench_build/ are never scanned. So does a differential
# oracle (the O(T) engine, the linear cluster scan, the linear balancers)
# named from a non-test file: the oracles live in _test.go files, and the
# shipped build carries no mode that selects them. So does a non-test file of
# the experiment engine (internal/exper) or any file of cmd/fleet importing
# the span builder or the trace renderer: per-job and fleet timelines come
# from -telemetry through obsreport -trace-out, not from the engine or the
# fleet command. So does a non-test file of internal/harness importing
# internal/obs: a sweep's telemetry enters its jobs only through the
# engine's recorder, never through the harness. The benchmark module
# (perfbench/, its own Go module, so ./... never reaches it) is built and
# vetted, so an engine API change that breaks the benchmark fails tier 1;
# its tests are not run here. The smoke steps drive the CLIs end to end: a
# fleet sweep with telemetry, run twice, whose report, Perfetto export and
# terminal timeline obsreport renders from each stream (the two traces must
# be byte-identical), a 256-replica fleet rendered the same way, one
# chopin run at a fixed heap (no min-heap search) whose telemetry obsreport
# folds into a Chrome trace, and one latency-sensitive chopin run with its
# GC log, simulated into an empty cache and then served from it: the warm
# run must print the same bytes as the cold one (iterations, GC log and
# latency tables all come back from the cache record).
.PHONY: tier1
tier1: tier1-race

.PHONY: tier1-race
tier1-race:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	! git grep -n -F -e NewReferenceEngine -e NewReferenceCluster \
		-e newReferenceBalancer -e e.naive -e c.linear -e cfg.reference \
		-- '*.go' ':!*_test.go'
	! git grep -n -F -e chopin/internal/obs/traceview -e chopin/internal/obs/span \
		-- 'internal/exper/*.go' ':!*_test.go'
	! git grep -n -F -e chopin/internal/obs/span -e chopin/internal/obs/traceview \
		-- 'cmd/fleet/*.go'
	! git grep -n -F -e '"chopin/internal/obs"' -- 'internal/harness/*.go' ':!*_test.go'
	go build ./...
	go vet ./...
	cd perfbench && go vet ./...
	go test -race ./...
	for i in 1 2; do \
		go run ./cmd/fleet -bench micro-pauseprobe -replicas 1,2 -rates 1,2 \
			-lb round-robin,gc-aware -events 300 \
			-telemetry fleet-smoke-$$i.jsonl > /dev/null && \
		go run ./cmd/obsreport -fleet -trace-out fleet-smoke-$$i.trace.json \
			-timeline fleet-smoke-$$i.jsonl > /dev/null || exit 1; \
	done
	cmp fleet-smoke-1.trace.json fleet-smoke-2.trace.json
	go run ./cmd/fleet -bench micro-pauseprobe -replicas 256 -lb gc-aware \
		-events 60 -telemetry fleet-smoke-256.jsonl > /dev/null
	go run ./cmd/obsreport -fleet -trace-out fleet-smoke-256.trace.json \
		-timeline fleet-smoke-256.jsonl > /dev/null
	rm -f fleet-smoke-*.jsonl fleet-smoke-*.trace.json
	go run ./cmd/chopin -bench fop -n 2 -heap 100 -events 200 \
		-telemetry chopin-smoke.jsonl > /dev/null
	go run ./cmd/obsreport -trace-out chopin-smoke.trace.json chopin-smoke.jsonl > /dev/null
	rm -f chopin-smoke.jsonl chopin-smoke.trace.json
	rm -rf chopin-smoke-cache
	for i in 1 2; do \
		go run ./cmd/chopin -bench spring -n 2 -heap 200 -events 200 -gclog \
			-cache chopin-smoke-cache > chopin-smoke-$$i.txt || exit 1; \
	done
	cmp chopin-smoke-1.txt chopin-smoke-2.txt
	rm -rf chopin-smoke-cache chopin-smoke-1.txt chopin-smoke-2.txt

.PHONY: test
test:
	go test ./...

# Hot-path microbenchmarks: the scheduler (BenchmarkEngine*, internal/sim),
# the collector layer without a workload (BenchmarkCollectorPause,
# internal/gc: allocation and stop-the-world pauses over 12 mutators, one
# sub-benchmark per collector), the end-to-end invocation path (BenchmarkRunInvocation*, root package, one
# sub-benchmark per collector), the experiment engine's result cache (an LBO
# grid re-aggregated from a warm cache, BenchmarkEngineWarmCache, for fop,
# whose records hold a GC log, and h2, whose records also hold per-event
# latencies; and the fop grid simulated into a write-only one with the
# write-behind drain timed, BenchmarkEngineColdCache), the whole-suite batch-execution path
# (BenchmarkFullSuite, workers=1 vs workers=8), and the fleet layer
# (BenchmarkFleetSweep; BenchmarkFleetScale, the 16→1024 replica ladder whose
# 1024-replica rung the gate holds at 0 allocs/op — the driving loop must stay
# allocation-free at scale; and BenchmarkFleetTelemetry, which prices request
# tracing recorder-on vs -off and gates the disabled hooks at 0 allocs/op).
# FleetSweep and FleetTelemetry get their own -benchtime so each self-iterates
# to a stable ns/op instead of one cold N=1 sample (a single ~30ms sweep op
# varies ~30% run to run; 300ms amortizes it), while the minutes-scale
# FullSuite stays at -benchtime=1x and FleetScale at 3 runs per sample.
# FleetTelemetry/jsonl-roundtrip runs at a fixed 3 as well: at 200ms it ran
# 2 or 3 times, and its B/op, which amortizes setup over b.N, swung ~6% with
# the count. EngineColdCache runs a fixed 80 times per sample: its B/op
# varies from op to op (likely with how often a GC empties workload's
# scratch pool mid-op), and five samples spread 16.9–24.8 MB at 3 runs,
# 16.0–21.1 MB at 20 and 18.5–20.3 MB at 80.
# Each benchmark runs five times and benchdiff's write mode (-out) records the
# per-metric median, so the committed BENCH_sim.json baseline is
# median-of-five — directly comparable to the median-of-five gate runs and
# robust to scheduler noise on loaded hosts. Both of benchdiff's modes read,
# reduce and write through internal/obs/benchdiff, the one reader and writer
# of both bench formats, so the baseline it writes and the gate that reads it
# agree on every sample. BENCH_RUNS is the one command list that bench
# records and bench-gate checks.
define BENCH_RUNS
( go test -run='^$$' -bench='BenchmarkEngine' -benchmem -benchtime=300ms \
	-count=5 ./internal/sim && \
  go test -run='^$$' -bench='BenchmarkCollectorPause' -benchmem \
	-benchtime=300ms -count=5 ./internal/gc && \
  go test -run='^$$' -bench='BenchmarkRunInvocation' -benchmem -count=5 . && \
  go test -run='^$$' -bench='BenchmarkEngineWarmCache' -benchmem \
	-benchtime=300ms -count=5 . && \
  go test -run='^$$' -bench='BenchmarkEngineColdCache' -benchmem \
	-benchtime=80x -count=5 . && \
  go test -run='^$$' -bench='BenchmarkFullSuite' -benchtime=1x -count=5 . && \
  go test -run='^$$' -bench='BenchmarkFleetSweep' -benchtime=300ms -count=5 \
	./internal/fleet && \
  go test -run='^$$' -bench='BenchmarkFleetScale' -benchtime=3x -count=5 \
	./internal/fleet && \
  go test -run='^$$' \
	-bench='BenchmarkFleetTelemetry/(recorder-off|recorder-on|hook-disabled)$$' \
	-benchtime=200ms -count=5 ./internal/fleet && \
  go test -run='^$$' -bench='BenchmarkFleetTelemetry/jsonl-roundtrip$$' \
	-benchtime=3x -count=5 ./internal/fleet )
endef

.PHONY: bench
bench:
	$(BENCH_RUNS) | go run ./cmd/benchdiff -out BENCH_sim.json

# Statistical perf-regression gate: run the hot-path microbenchmarks five
# times and compare the distributions against the committed BENCH_sim.json
# baseline with cmd/benchdiff (Mann-Whitney + median threshold, on ns/op,
# B/op and allocs/op). Fails on a statistically significant regression beyond
# 10% — and on ANY allocation where the baseline records zero. The scaling
# gate then re-reads the same captured output (no benchmarks re-run), so a
# whole-suite parallel-efficiency collapse fails bench-gate too.
.PHONY: bench-gate
bench-gate:
	$(BENCH_RUNS) | tee bench-gate.txt
	go run ./cmd/benchdiff -threshold 0.10 BENCH_sim.json bench-gate.txt
	go run ./cmd/benchdiff -out /dev/null -scaling-min auto < bench-gate.txt > /dev/null

# Whole-suite scaling gate, standalone: run only BenchmarkFullSuite at
# workers ∈ {1, 8, NumCPU} and fail if the derived parallel efficiency
# (workers=1 ns ÷ workers=8 ns) falls below the host-scaled floor —
# max(0.9, 0.5·min(8, NumCPU)): an 8-core host demands ≥4x, a single core
# demands only not-regressing (it cannot speed up).
.PHONY: bench-scaling
bench-scaling:
	go test -run='^$$' -bench='BenchmarkFullSuite' -benchtime=1x -count=5 . \
		| go run ./cmd/benchdiff -out /dev/null -scaling-min auto

# Native fuzzing of the decoders of bytes a run did not just write: the binary
# invocation cache record (FuzzDecodeInvocation), the JSON result and cache
# archives (FuzzLoadArchive), the JSONL telemetry stream (FuzzDecodeStream),
# unified-logging GC logs (FuzzParseAll), the BENCH_sim.json maps and go test
# -bench text that internal/obs/benchdiff reads and writes (FuzzParse),
# cmd/benchdiff's write mode with its echo and median map (FuzzParseBench)
# and runbms experiment plans (FuzzDecodePlan); and of the
# Chrome trace writer's integer number fast path against strconv
# (FuzzChromeNumber). go test -fuzz takes one
# target per run, so each gets its own fixed time budget. The committed seed
# corpora under testdata/fuzz also run as ordinary tests in tier1.
.PHONY: fuzz
fuzz:
	go test -run='^$$' -fuzz='^FuzzDecodeInvocation$$' -fuzztime=60s ./internal/persist
	go test -run='^$$' -fuzz='^FuzzLoadArchive$$' -fuzztime=60s ./internal/persist
	go test -run='^$$' -fuzz='^FuzzDecodeStream$$' -fuzztime=60s ./internal/obs
	go test -run='^$$' -fuzz='^FuzzParseAll$$' -fuzztime=60s ./internal/gclog
	go test -run='^$$' -fuzz='^FuzzChromeNumber$$' -fuzztime=60s ./internal/obs/traceview
	go test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=60s ./internal/obs/benchdiff
	go test -run='^$$' -fuzz='^FuzzParseBench$$' -fuzztime=60s ./cmd/benchdiff
	go test -run='^$$' -fuzz='^FuzzDecodePlan$$' -fuzztime=60s ./cmd/runbms

# The paper-facing artifacts: every file under results/ is written by one
# runbms plan, experiments/results.json, on one engine. Both targets start
# from an empty cache under .bench_build/ and delete it afterwards (~2.9 GB):
# a cache entry is keyed by a job's parameters and the digest of the workload
# goldens, not by the simulator's code, so a warm cache would re-render the
# numbers of whatever code filled it after a change that moves no golden.
# `make results` rewrites results/ from scratch; `make results-check`
# regenerates into a temporary directory and fails on any difference from
# the committed results/. Cold, each takes about a minute on 2 cores, which
# keeps results-check out of tier1.
RESULTS_CACHE := .bench_build/results-cache

.PHONY: results
results:
	rm -rf results $(RESULTS_CACHE)
	go run ./cmd/runbms -plan experiments/results.json -out results -cache $(RESULTS_CACHE)
	rm -rf $(RESULTS_CACHE)

.PHONY: results-check
results-check:
	rm -rf $(RESULTS_CACHE)
	tmp=$$(mktemp -d) && \
	go run ./cmd/runbms -plan experiments/results.json -out $$tmp -cache $(RESULTS_CACHE) && \
	diff -r results $$tmp; \
	status=$$?; rm -rf $$tmp $(RESULTS_CACHE); exit $$status

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
