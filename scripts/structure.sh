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
	# A write session's page bookkeeping lives on its frames (capture
	# stamp, pre-image pointer): no set or map keyed by frame.
	'map[*Frame]'
	# One fetch path for the turbulence service: a batch walks its cubes
	# in key order and reads each through one blob reader, with no
	# whole-cube copy kept per batch.
	'readBlock('
	'VisitBlobRunsAt'
	# One retention rule for MVCC: the catalog is an immutable value a
	# snapshot holds by pointer, and a page version lives while a live
	# snapshot tag falls in its interval. No per-table catalog version
	# list, pruning floor or oldest-snapshot horizon. (The call forms are
	# matched: a bench/ comment still names the old function.)
	'publishMeta('
	'metaAtLocked('
	'MinSnapshotTag('
	'minSnap'
)
src=()
while IFS= read -r f; do
	[ -f "$f" ] && src+=("$f")
done < <(git ls-files --cached --others --exclude-standard '*.go' 2>/dev/null | grep -v '_test\.go$' | grep -v '/testdata/')
# With no file arguments grep would read stdin and never return: a tree
# git lists nothing in (an export outside a checkout) cannot be checked.
if [ ${#src[@]} -eq 0 ]; then
	echo "structure: git lists no non-test Go files here; run it in a git checkout" >&2
	exit 1
fi
fail=0
for n in "${names[@]}"; do
	if hits=$(grep -nF -- "$n" "${src[@]}"); then
		echo "structure: '$n' is back in non-test code:" >&2
		echo "$hits" >&2
		fail=1
	fi
done
exit $fail
