# Developer entry points. `make verify` is the repo's gate: gofmt,
# vet, build, the inline guard, the arm64 fused-multiply-add guard, the
# host-independence check (the suite, the results and the fast
# formats' boundary roundings with the CPU's FMA switched off), the
# positlint static-analysis suite, the full test suite, a
# race-detector pass over every package, the runner-jobs determinism
# check, and a repeated race pass over the concurrent-use tests.

GO ?= go

.PHONY: verify fmt vet build inline fma nofma lint test race determinism stress results serve chaos benchcheck bench-runner bench-lint bench-kernels bench-service bench-jobs bench-tables bench-shadow profile

verify: fmt vet build inline fma nofma lint test race determinism stress

# Fail, naming the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Fail, naming the function, when a helper that the fast format's
# kernel loops or scalar operations call on their common path is no
# longer inlinable: past Go's inline budget it becomes a call per
# element or per operation. fastFormat.table is the lazy inline-table
# check that every operation makes. A method is listed as T.name and matched
# as the compiler prints a pointer-receiver method, (*T).name.
INLINE_HELPERS := inlineTable.round sumExact fastFormat.table

inline:
	@out=$$($(GO) build -gcflags=-m ./internal/arith 2>&1) || { echo "$$out"; exit 1; }; \
	for fn in $(INLINE_HELPERS); do \
		case $$fn in *.*) re="\(\*$${fn%%.*}\)\.$${fn#*.}" ;; *) re=$$fn ;; esac; \
		echo "$$out" | grep -qE "can inline $$re( |$$)" || \
			{ echo "internal/arith: $$fn is no longer inlinable (go build -gcflags=-m)"; exit 1; }; \
	done

# Fail, naming the line, when the arm64 compiler fuses a multiply and
# an add whose source line has no math.FMA call. The Go spec lets
# arm64 (unlike amd64) fuse x*y + z into one FMA unless the product is
# converted explicitly, float64(x*y), and the fused result rounds
# differently. FMA_PKGS are the packages kept free of such lines.
FMA_PKGS := ./internal/arith ./internal/matgen ./internal/shadow ./internal/fft ./internal/shocktube ./internal/linalg ./internal/solvers ./internal/experiments

fma:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$out"; exit 1; }; \
	bad=0; \
	for loc in $$(echo "$$out" | grep -E '\bFN?M(ADD|SUB)[DS]\b' | sed -E 's/^[^(]*\(([^)]*)\).*/\1/' | sort -u); do \
		src=$$(sed -n "$${loc##*:}p" "$${loc%:*}"); \
		case "$$src" in *math.FMA\(*) ;; *) echo "$$loc: fused multiply-add without math.FMA: $$src"; bad=1 ;; esac; \
	done; \
	exit $$bad

# Fail when the generated suite, the results or the fast formats'
# boundary roundings depend on whether the host CPU has FMA: on amd64,
# GODEBUG=cpu.fma=off makes the test binaries run as on a CPU without
# it (math.Exp's other branch, math.FMA in software), and the suite
# fingerprints, the golden suite files, the result rows and the arith
# tests aimed at rounding boundaries must not move: every fast
# format's boundary products, quotients and roots resolve through
# math.FMA (mulExact, divExact, sqrtExact). -exec hands GODEBUG to the
# test binaries only. Other architectures have no such switch.
NOFMA_TESTS := TestSuiteFingerprint|TestGoldenSuiteFiles|TestExpFMAPath|TestResultsByteIdentical|TestTablesUnaryExhaustive|TestTablesBinaryOpsRandom|TestTable8Exhaustive|TestWideBoundary|TestSumResidualSide|TestQuotientBoundaryTies

nofma:
	@arch=$$($(GO) env GOARCH); if [ "$$arch" = amd64 ]; then \
		$(GO) test -count=1 -exec 'env GODEBUG=cpu.fma=off' -run '$(NOFMA_TESTS)' ./internal/matgen/ ./internal/experiments/ ./internal/arith/; \
	else \
		echo "nofma: skipped on $$arch (GODEBUG=cpu.fma=off switches an amd64 CPU feature)"; \
	fi

# positlint: the repo-specific analyzers (precision laundering,
# deterministic output, lock hygiene, error discipline, panic
# discipline, registry consistency, plus the interprocedural rules:
# xprecision, durability, ctxprop, mutexio, unusedallow). The fact
# cache under .positlint-cache makes re-runs near-instant; delete the
# directory to force a cold analysis. See internal/lint.
lint:
	$(GO) run ./cmd/positlint -cache .positlint-cache

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fail, showing the diff, when the experiments' stdout depends on the
# runner's job count: the shadow-diagnosed Table III grid runs one job
# at a time (-jobs 1) and two at once (-jobs 2), and the two outputs
# must match once the "(...)" elapsed-time suffixes are stripped.
DETERMINISM_ARGS := -matrices bcsstk22,494_bus,nos5 -shadow table3 diagnose

determinism:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/experiments" ./cmd/experiments && \
	"$$d/experiments" -jobs 1 $(DETERMINISM_ARGS) > "$$d/serial" && \
	"$$d/experiments" -jobs 2 $(DETERMINISM_ARGS) > "$$d/concurrent" && \
	sed 's/(.*)$$//' "$$d/serial" > "$$d/serial.txt" && \
	sed 's/(.*)$$//' "$$d/concurrent" > "$$d/concurrent.txt" && \
	diff "$$d/serial.txt" "$$d/concurrent.txt" && echo "determinism: -jobs 1/-jobs 2 output identical"

# Fail, showing the diff, when a full run of the experiments no longer
# reproduces the checked-in outputs: it builds cmd/experiments, runs
# `-csv results -svg figures all` in a temporary directory, and diffs
# the CSVs against results/, the SVGs against figures/ and stdout
# against full_results.txt, with the elapsed-time lines masked and the
# file's trailing EXIT=0 line dropped. About 45 s on 2 CPUs, so it is
# kept out of verify and runs as its own CI job.
ELAPSED_MASK := s/^\([0-9][0-9hms.]*\)$$/(elapsed)/

results:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/experiments" ./cmd/experiments && \
	{ (cd "$$d" && ./experiments -csv results -svg figures all > stdout 2> stderr) || { cat "$$d/stderr"; exit 1; }; } && \
	diff -r results "$$d/results" && diff -r figures "$$d/figures" && \
	sed -E -e '$${/^EXIT=/d;}' -e '$(ELAPSED_MASK)' full_results.txt > "$$d/want.txt" && \
	sed -E '$(ELAPSED_MASK)' "$$d/stdout" > "$$d/got.txt" && \
	diff "$$d/want.txt" "$$d/got.txt" && \
	echo "results: results/, figures/ and full_results.txt reproduced"

# Repeat the tests of concurrent first use and shared state under the
# race detector, so a test that passes only once per process, or a race
# that shows only in some interleavings, fails here.
stress:
	$(GO) test -race -count=10 -run 'Singleflight|Concurrent' ./internal/...

# Chaos: run every durable path's invariant suite under randomized
# deterministic fault schedules (internal/faultfs). Environment knobs:
#   POSITLAB_CHAOS_SEED=N    base seed (new schedules per base)
#   POSITLAB_CHAOS_N=N       schedules per package
#   POSITLAB_CHAOS_REPLAY=N  reproduce one printed failure seed
#   POSITLAB_CHAOS_DROP_SYNC=1  canary: tests MUST fail under it
chaos:
	$(GO) test -run TestChaos -count=1 -v ./internal/jobs/ ./internal/runner/ ./internal/shadow/

# Re-assert the checked-in performance contracts (BENCH_shadow.json
# overhead ratios, BENCH_jobs.json throughput floor, BENCH_lint.json
# warm-cache speedup) at generous tolerances. See cmd/benchcheck.
benchcheck:
	$(GO) run ./cmd/benchcheck

# Reproduce BENCH_runner.json's timing comparison on a small subset
# (the checked-in file records the full 19-matrix suite).
bench-runner:
	$(GO) build -o /tmp/positlab-experiments ./cmd/experiments
	time /tmp/positlab-experiments -jobs 1 all >/dev/null
	time /tmp/positlab-experiments -jobs 4 all >/dev/null

# Reproduce BENCH_kernels.json: the slice-kernel hot loops (dot, CSR
# matvec, Cholesky of the 1-D Laplacian and of a dense matrix) across
# formats.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Dot1024|MatVec1000|Cholesky200' -benchtime 2s ./internal/linalg/

# Reproduce BENCH_lint.json: the linter's full-repo load, the per-run
# analysis cost, and the cold vs warm fact-cache comparison.
bench-lint:
	$(GO) test -run '^$$' -bench 'BenchmarkLoadRepo|BenchmarkRunRules|BenchmarkRepoCold|BenchmarkRepoWarm' -benchtime 3x ./internal/lint/

# Run the positd HTTP server on :8787 with a local disk cache for
# experiment results. See README "Serving" for the endpoints.
serve:
	$(GO) run ./cmd/positd -cache .cache/positd

# Reproduce the table-engine rows of BENCH_kernels.json: the 16-bit
# Cholesky/IR hot paths on the fast formats, the float64 solve of a
# refinement step on a sparse and a dense 16-bit factor, the one-time
# inline-table build cost (with resident bytes per format), and the
# 8-bit posit scalar throughput.
bench-tables:
	$(GO) test -run '^$$' -bench 'Cholesky200(Graded)?(Float16|BFloat16|Posit16e1|Posit16e2)$$|SolveCholF64' -benchtime 2s ./internal/linalg/
	$(GO) test -run '^$$' -bench 'MixedIR' -benchtime 2s ./internal/solvers/
	$(GO) test -run '^$$' -bench 'TableBuild|FastPosit8' ./internal/arith/

# Capture a CPU profile of the 16-bit Cholesky hot path (Float16) and
# print the top functions. Inspect interactively with
# `go tool pprof /tmp/positlab-cholesky.prof`.
profile:
	$(GO) test -run '^$$' -bench 'Cholesky200Float16' -benchtime 2s \
		-cpuprofile /tmp/positlab-cholesky.prof ./internal/linalg/
	$(GO) tool pprof -top -nodecount 15 /tmp/positlab-cholesky.prof

# Reproduce BENCH_service.json: closed-loop req/s and latency for the
# serving layer (convert batches and warm cached experiments), plus
# the Go micro-benchmarks for the same paths.
bench-service:
	POSITLAB_BENCH_SERVICE=1 $(GO) test -run TestWriteServiceBenchReport ./internal/service/
	$(GO) test -run '^$$' -bench 'BenchmarkService' -benchtime 2s ./internal/service/

# Reproduce BENCH_shadow.json: shadow-wrapper overhead (off vs default
# sampling vs full measurement) on the Dot1024 workload and on
# Cholesky200 of the 1-D Laplacian and of a dense matrix, plus the raw
# Go micro-benchmarks for the same paths. The report test also asserts
# the overhead contract (sampled <= 2x, full <= 10x on the Laplacian).
bench-shadow:
	POSITLAB_BENCH_SHADOW=1 $(GO) test -run TestWriteShadowBenchReport -v ./internal/shadow/
	$(GO) test -run '^$$' -bench 'Dot1024Posit16e2|Cholesky200Posit16e2' -benchtime 1s ./internal/shadow/

# Reproduce BENCH_jobs.json: submit-to-complete throughput of the
# durable job store (ephemeral / journaled / journaled-nosync) and
# journal replay latency at several backlog sizes, plus the raw Go
# micro-benchmarks for the same paths.
bench-jobs:
	POSITLAB_BENCH_JOBS=1 $(GO) test -run TestWriteJobsBenchReport ./internal/jobs/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitComplete|BenchmarkReplay' -benchtime 1s ./internal/jobs/
