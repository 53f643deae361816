# Developer entry points. CI runs the same steps (.github/workflows/ci.yml);
# `make lint` before pushing catches everything the lint job would.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: build test race lint bench surface

build:
	go build ./...

# bench/ is its own module (the driver builds it from its checkout) and
# imports internal/, so the root `go test ./...` does not see it: vet and
# test it here, or an internal/ API change breaks the benchmark unnoticed.
test: build
	go test ./...
	cd bench && go vet . && go test .

# Every package that spawns or shares goroutines; CI's race step runs
# this target, so the list lives here only.
race:
	go test -race ./internal/engine/... ./internal/sqlmini/... ./internal/btree/... ./internal/pages/... ./internal/wal/... ./internal/blob/... ./internal/spectra/... ./internal/turbulence/... ./internal/partition/... ./internal/obs/... ./internal/nbody/... ./internal/tsql/...

# lint mirrors CI's lint job: formatting, stock vet, the structure guard
# (scripts/structure.sh: deleted code paths stay deleted), and
# sqlarraylint — the repo's own invariant suite (pinleak, latchorder,
# atomicfield, durasync, ctxloop; see internal/analysis). staticcheck
# additionally runs when it is installed; CI always installs it, offline
# dev environments may not have it.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	bash scripts/structure.sh
	go test ./internal/analysis/...
	go install ./cmd/sqlarraylint
	go vet -vettool="$(GOBIN)/sqlarraylint" ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; fi

# Micro-benchmarks of single hot functions — unit tests of speed, kept
# only where bench/ has no metric that isolates the same thing. Anything
# end to end (Table 1, UDF cost, WAL, COPY, parallel scans, partitions)
# is a bench/ workload or per-layer metric (bench/README.md,
# bench/results/), not an entry here. CI's "benchmark smoke" step runs
# this target and keeps the output as an artifact — a trend line, not a
# gate — and fails if a name below matches no Benchmark func.
bench:
# cached fetches from 1, 2, 4 and 8 goroutines through the pool's one lock, and fetches that must evict; bench/'s pages.fetch_hit_ns / fetch_miss_us are one goroutine into free frames.
	go test -run='^$$' -bench='BenchmarkBufferPoolContention|BenchmarkBufferPoolFetchMiss' -benchtime=300ms ./internal/pages
# one write session over one resident page: capture, FetchForWrite's 8 kB copy-on-write copy, publish and retirement (allocs reported); no bench/ metric times the copy (pages.cow_copies only counts copies).
	go test -run='^$$' -bench='BenchmarkFetchForWrite' -benchtime=300ms ./internal/pages
# one-row autocommit Insert on a log-less database (capture, copy-on-write, publish, retirement; allocs reported); bench/'s table1_scan setup_s is 800 000 of these plus the scan fixture. The tables=1/16/256 cases run it in a database of that many tables, one written: no bench/ workload has more than about 12 tables, so only these show a commit's cost growing with the catalog (one 48-byte entry copied per table). The held-snapshot case (1 table) keeps one snapshot open across every commit: no bench/ workload holds a snapshot across many writes (nbody_ingest's scanner re-opens its own every scan), so only this case shows a commit's cost growing with a long-lived reader.
	go test -run='^$$' -bench='BenchmarkOneRowCommit' -benchtime=300ms ./internal/engine
# the UDF boundary's ns/row in Table 1's Q4 and Q5 shapes without the scan; bench/'s engine.udf_call_ns is Q5 minus Q3 through the whole executor.
	go test -run='^$$' -bench='BenchmarkCallBatch' -benchtime=300ms ./internal/engine
# executor ns/row per query shape (aggregate, filter, wide low-selectivity project); bench/'s sqlmini.exec_ns_per_row is Table 1's Q3 only.
	go test -run='^$$' -bench='BenchmarkPipelineBatch' -benchtime=300ms ./internal/sqlmini
# blob.Store reads and the codecs called directly; bench/'s blob.* metrics are taken through the table layer of a workload.
	go test -run='^$$' -bench='BenchmarkReadAll1MB|BenchmarkPartialRead4kOf1MB|BenchmarkReadRunsStencil|BenchmarkCodec' -benchtime=300ms ./internal/blob
# turbulence VelocityBatch with its blocks resident: the stencil path's CPU (run planning, decode, kernel), which bench/'s turbulence.compute_share does not isolate (ROADMAP 1(c)).
	go test -run='^$$' -bench='BenchmarkVelocityBatch' -benchtime=300ms ./internal/turbulence
# codec ratio per synthetic data shape; bench/'s blob.compress_ratio is one number per workload.
	go test -run='TestCompressionRatioTable' -v ./internal/blob | grep -E 'ratio-table:'
# registry counter names and magnitudes for a fixed query set, to read the ns/op above against what the engine did.
	go test -run='TestMetricsSnapshotDump' -v ./internal/sqlmini | grep -E 'metrics-snapshot:'

# surface prints the size of the code and API surface (see the script).
surface:
	bash scripts/surface.sh
