#!/usr/bin/env bash
# Size of the code and API surface, for simplicity PRs to quote: run it at
# the parent and at the change. Also fails if a name in the Makefile's
# -bench='…' patterns matches no Benchmark func (a stale `make bench` entry).
set -euo pipefail
cd "$(dirname "$0")/.."
src=$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^bench/' | grep -v '/testdata/')
echo "non-test Go lines outside bench/ and testdata: $(cat $src | wc -l)"
# Exported = top-level funcs, methods, types, vars and consts, plus the
# fields and methods of exported struct and interface types (gofmt layout).
echo "exported identifiers in those files: $(awk '
	/^(func|type|var|const) (\([^)]*\) )?[A-Z]/ { n++ }
	/^(var|const) \($/ || /^type [A-Z][A-Za-z0-9_]* (struct|interface) \{$/ { blk = 1; next }
	/^[)}]/ { blk = 0 }
	blk && /^\t[A-Z][A-Za-z0-9_]*([ ,(]|$)/ { n++ }
	END { print n }' $src)"
fields() { # fields FILE TYPE: number of fields of struct TYPE
	awk -v t="type $2 struct {" '$0 == t { b = 1; next } b && /^}/ { exit } b && /^\t[A-Za-z_]/ { n++ } END { print n + 0 }' "$1"
}
echo "engine.Options fields: $(fields internal/engine/db.go Options)"
echo "sqlmini.ExecOptions fields: $(fields internal/sqlmini/planner.go ExecOptions)"
stale=0
for name in $(grep -o -- "-bench='[^']*'" Makefile | cut -d"'" -f2 | tr '|' '\n'); do
	if ! grep -rqE "^func $name" --include='*_test.go' .; then
		echo "Makefile -bench name $name matches no Benchmark func" >&2
		stale=1
	fi
done
exit $stale
