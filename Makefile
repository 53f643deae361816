# Developer entry points. CI runs the same steps (.github/workflows/ci.yml);
# `make lint` before pushing catches everything the lint job would.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: build test race lint bench

build:
	go build ./...

# bench/ is its own module (the driver builds it from its checkout) and
# imports internal/, so the root `go test ./...` does not see it: vet and
# test it here, or an internal/ API change breaks the benchmark unnoticed.
test: build
	go test ./...
	cd bench && go vet . && go test .

race:
	go test -race ./internal/engine/... ./internal/sqlmini/... ./internal/btree/... ./internal/pages/... ./internal/wal/... ./internal/blob/... ./internal/spectra/... ./internal/turbulence/...

# lint mirrors CI's lint job: formatting, stock vet, and sqlarraylint —
# the repo's own invariant suite (pinleak, latchorder, atomicfield,
# durasync, ctxloop; see internal/analysis). staticcheck additionally
# runs when it is installed; CI always installs it, offline dev
# environments may not have it.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go test ./internal/analysis/...
	go install ./cmd/sqlarraylint
	go vet -vettool="$(GOBIN)/sqlarraylint" ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; fi

# The one list of micro-benchmarks: short runs of every perf-tracking
# `go test -bench`, plus the codec ratio table and a registry snapshot
# (ratio-table: / metrics-snapshot: lines) so a moved number can be read
# against what the engine did. CI's "benchmark smoke" step runs exactly
# this target and keeps the output as an artifact — a trend line, not a
# gate. End-to-end numbers and the checked-in trajectory live in bench/
# (bench/README.md, bench/results/).
bench:
	go test -run='^$$' -bench='BenchmarkWALAppend|BenchmarkWALGroupCommit' -benchtime=300ms ./internal/wal
	go test -run='^$$' -bench='BenchmarkBufferPoolContention|BenchmarkBufferPoolFetchMiss|BenchmarkScanResistantEviction' -benchtime=300ms ./internal/pages
	go test -run='^$$' -bench='BenchmarkPipelineBatch|BenchmarkParallelAggregate|BenchmarkMixedScanDML' -benchtime=300ms ./internal/sqlmini
	go test -run='^$$' -bench='BenchmarkReadAll1MB|BenchmarkPartialRead4kOf1MB|BenchmarkReadRunsStencil|BenchmarkCodec' -benchtime=300ms ./internal/blob
	go test -run='^$$' -bench='BenchmarkSubarrayPartialVsWholeBlob' -benchtime=1x .
	go test -run='^$$' -bench='BenchmarkBulkLoad' -benchtime=2x ./internal/engine
	go test -run='^$$' -bench='BenchmarkPartitionedScanSpeedup' -benchtime=300ms ./internal/partition
	go test -run='TestCompressionRatioTable' -v ./internal/blob | grep -E 'ratio-table:'
	go test -run='TestMetricsSnapshotDump' -v ./internal/sqlmini | grep -E 'metrics-snapshot:'
