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
	# No whole-page value assignment: Go compiles a copy of the 8196-byte
	# Page (or its 8192-byte Buf) to REP MOVSQ, several times slower than
	# the runtime.memmove that copy() on the Buf slices calls (~800 ns
	# against ~150 ns for a hot 8 kB copy). Copy pages with
	# copy(dst.Page.Buf[:], src.Page.Buf[:]) and set the ID apart.
	'.Page = '
	'.Page.Buf = '
	# One buffer-pool lock: no lock stripes, no stripe sizing, no bit
	# mask of the stripes that hold page versions. A miss reads its page
	# with the lock released instead.
	'shardFor('
	'shardCountFor('
	'versMask'
	# One way to cut a window out of an array: Subarray (and, for a
	# stored array, ArrayReader.Read). No rank-1 convenience beside it.
	'Slice1D'
	# One element read over serialized bytes: core.Item validates and
	# reads in one pass. No in-place view that re-reads the header.
	'ViewOf('
	# Rows leave the engine by batch (Cursor.FillBatch) or by key
	# (GetAt): no lazily decoded row view, no row-at-a-time scan, no
	# one-call UDF convenience beside Lookup + Call.
	'RowView'
	'Table) Scan('
	'Cursor) Row('
	'CursorAt('
	'RunAggregateUDA'
	'CallByName('
	# A write session handles only the tables it writes: a table's first
	# write in a session attaches its writer state to the published
	# entry, so Abort rolls no table back.
	'Table) restore('
)
# Names checked in the program only, not in bench/: bench/ is its own
# module, and its wal.append_us_per_page probe builds a page-sized
# payload on purpose, to time Append.
program_names=(
	# A logged page costs one copy, into the log's append buffer: the
	# engine passes the page id and the page bytes to wal.Log.Append as
	# parts, and replay reads every frame into one reused buffer. No
	# per-record payload or frame buffer.
	'make([]byte, 4+pages.PageSize)'
	'make([]byte, frameHeaderSize+'
)
# Names checked in internal/sqlmini only. A statement is lexed in one
# pass, token by token as the parser asks: no up-front token slice, and
# no upper-cased copy of each word to find its keyword.
sqlmini_names=(
	'lexAll'
	'strings.ToUpper('
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
prog=()
sqlmini=()
for f in "${src[@]}"; do
	case "$f" in bench/*) ;; *) prog+=("$f") ;; esac
	case "$f" in internal/sqlmini/*) sqlmini+=("$f") ;; esac
done
fail=0
check() { # check NAME FILE...
	local n=$1 hits
	shift
	if hits=$(grep -nF -- "$n" "$@"); then
		echo "structure: '$n' is back in non-test code:" >&2
		echo "$hits" >&2
		fail=1
	fi
}
for n in "${names[@]}"; do
	check "$n" "${src[@]}"
done
for n in "${program_names[@]}"; do
	check "$n" "${prog[@]}"
done
for n in "${sqlmini_names[@]}"; do
	check "$n" "${sqlmini[@]}"
done
# The same rule for the catalog: Commit builds the next catalog from the
# session's written set, so no session copies every table's entry.
if hits=$(grep -nE -- 'slices\.Clone\(.*\.tables\)' "${src[@]}"); then
	echo "structure: a write session copies the whole catalog:" >&2
	echo "$hits" >&2
	fail=1
fi
# One header validator: the bytes of a serialized array's header are
# checked in internal/core/header.go only (checkHeader, and Item's pass
# over it). A check written in place elsewhere — the magic byte, the
# format version or the class flag compared inline — is a second
# validator that drifts from the first.
header_check='(==|!=)[[:space:]]*(magic|formatVersion|0[xX][aA][bB])\b|\b(magic|formatVersion)[[:space:]]*(==|!=)|>>[[:space:]]*4[[:space:]]*(==|!=)|classFlagMask'
others=()
for f in "${src[@]}"; do
	[ "$f" = internal/core/header.go ] || others+=("$f")
done
if hits=$(grep -nE -- "$header_check" "${others[@]}"); then
	echo "structure: array header bytes are checked outside internal/core/header.go:" >&2
	echo "$hits" >&2
	fail=1
fi
exit $fail
