#!/usr/bin/env bash
# Structure guard: names of code paths this codebase has deleted must not
# come back in non-test Go. Each is a fixed string; a hit prints the
# lines and fails. `make lint` and CI's lint job run it.
set -euo pipefail
cd "$(dirname "$0")/.."
names=(
	# One expression evaluator (evalBatch): the row-at-a-time eval and
	# its context live only in the test oracle (pipeline_test.go).
	'rowCtx'
	'evalRowwise'
	'.eval('
	'reg.Call('
	'columnValue'
	# One read loop (drainStack): parallel workers are partitionPartial.
	'scanPartition'
	'workerState'
	'newWorkerFunc'
	# Nothing a read lends outlives the read: no pinned blob view, no
	# pin set a batch owns.
	'BlobPins'
	'Contiguous('
	'resolvePinFraction'
	'Store) View('
	# One chunk layout: an incompressible blob is raw blocks in the
	# packed format, so no page flag tells two formats apart and no
	# second patch path exists.
	'FlagCompressedBlob'
	'writeRunsRaw'
	'SetFlags('
	# One durability path: the WAL syncs under its mutex with no
	# group-commit leader, and the data-file fsync is a DiskManager
	# method, not an optional interface a wrapper can hide. (The counter
	# is matched by its uses: bench/ still reads the old series name.)
	'syncCond'
	'.piggybacks'
	'GroupCommitPiggybacks'
	'SyncWAL'
	'interface{ Sync() error }'
	# One Lagrange basis: the turbulence service calls interp.AxisWeights
	# instead of keeping its own copy.
	'lagrangeInto'
	'axisWeightsFor'
	# One reader for stored arrays: engine.ArrayReader reads every
	# header and subarray, and the blob store reads through Open.
	'blobHeader('
	'BlobHeaderAt('
	'BlobSubarrayAt('
	'Store) ReadAt('
	'Store) ReadRuns('
	# One way to open a database: sqlarray.OpenDatabase and engine.Open
	# are the only constructors.
	'NewDatabase('
	'NewDatabaseWith('
	'NewMemWAL('
	'NewMemDB('
	'NewDB('
	# bulk staging: one arena, no per-row heap image.
	'sort.Slice(pending'
	'byID['
	# One sequential CSV source: no parse pool, no options; one slow-log
	# option that carries its threshold, and no stderr fallback.
	'parseWorker'
	'CSVOptions'
	'DefaultSlowLog'
	# One way to read a counter: the metrics registry. No typed snapshot
	# copies a component's counters into a second field list.
	'BoundaryStats'
	'ServiceStats'
	'BufferPool) Stats('
	'counters) snapshot('
	# Intrusive SLRU lists: linking a frame allocates nothing.
	'container/list'
)
src=()
while IFS= read -r f; do
	[ -f "$f" ] && src+=("$f")
done < <(git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$' | grep -v '/testdata/')
fail=0
for n in "${names[@]}"; do
	if hits=$(grep -nF -- "$n" "${src[@]}"); then
		echo "structure: '$n' is back in non-test code:" >&2
		echo "$hits" >&2
		fail=1
	fi
done
exit $fail
