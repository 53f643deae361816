#!/usr/bin/env bash
# Size of the code and API surface, for simplicity PRs to quote: run it at
# the parent and at the change. Also counts the functions no binary links
# (`-v` lists them), and fails if a name in the Makefile's -bench='…'
# patterns matches no Benchmark func (a stale `make bench` entry).
#
# Usage: bash scripts/surface.sh [-v]
set -euo pipefail
cd "$(dirname "$0")/.."
verbose=0
[ "${1:-}" = "-v" ] && verbose=1
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
# Top-level exported names in internal/ (non-test files) that no other
# package writes as pkg.Name — tests, cmd/, examples/ and bench/ included,
# an external _test package counting as another package. Each is a
# candidate to unexport, unless an exported signature or field exposes it.
all=$(git ls-files '*.go' | grep -v '/testdata/')
echo "exported names no other package names: $({
	grep -H -m1 '^package ' $all | sed 's/:package / /'
	grep -oHE '\<[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*' $all | sed 's/:/ ref /'
	awk '
		FNR == 1 { blk = 0 }
		/^(func|type|var|const) [A-Z]/ { split($2, w, /[^A-Za-z0-9_]/); print FILENAME, "decl", w[1]; next }
		/^(var|const|type) \($/ { blk = 1; next }
		/^\)/ { blk = 0 }
		blk && /^\t[A-Z]/ { split($1, w, /[^A-Za-z0-9_]/); print FILENAME, "decl", w[1] }
	' $(echo "$src" | grep '^internal/')
} | awk '
	function dir(f) { sub(/\/[^\/]*$/, "", f); return f }
	$2 == "decl" { d = dir($1); k = split(d, p, "/"); decl[p[k] "." $3 " " d] = 1; next }
	$2 == "ref" { ref[$3 " " dir($1) " " ($1 in ext)] = 1; next }
	$2 ~ /_test$/ { ext[$1] = 1 }
	END {
		for (k in ref) { split(k, r, " "); named[r[1]] = named[r[1]] " " r[2] ":" r[3] }
		for (k in decl) {
			split(k, q, " "); out = 1; m = split(named[q[1]], u, " ")
			for (i = 1; i <= m; i++) if (u[i] != q[2] ":0") out = 0
			n += out
		}
		print n + 0
	}')"
fields() { # fields FILE TYPE: exported fields of struct TYPE (+ unexported ones)
	awk -v t="type $2 struct {" '$0 == t { b = 1; next } b && /^}/ { exit }
		b && /^\t[A-Z]/ { n++ } b && /^\t[a-z_]/ { u++ }
		END { printf "%d%s\n", n, u ? " (+" u " unexported)" : "" }' "$1"
}
echo "engine.Options fields: $(fields internal/engine/db.go Options)"
echo "sqlmini.ExecOptions fields: $(fields internal/sqlmini/planner.go ExecOptions)"

# Functions no binary links: build every package main under cmd/ and
# examples/ plus the bench/ module with inlining off (so a call the
# compiler folded away still leaves its callee's symbol), take the union
# of their text symbols, and list each non-test func declaration above
# that none of them contains. Not a gate: methods the root package
# exposes, test oracles and test infrastructure are listed by design
# (CONTRIBUTING.md).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for dir in $(grep -l '^package main$' $(git ls-files 'cmd/*.go' 'examples/*.go' | grep -v '_test\.go$') | xargs -n1 dirname | sort -u) bench; do
	bin="$tmp/$(echo "$dir" | tr / _)"
	(cd "$dir" && go build -gcflags=all=-l -o "$bin" .)
	# A main package's symbols are main.*; key them by the package's path.
	go tool nm "$bin" | awk -v pkg="sqlarray/$dir" '$2 == "T" { sub(/^main\./, pkg ".", $3); print $3 }'
done | awk '$0 ~ /^sqlarray[\/.]/' >"$tmp/symbols"
awk '
	# Normalise a symbol or declaration to pkg.Recv.Name: no pointer
	# receiver parens, no type parameters, no method-value suffix.
	function key(s) {
		gsub(/\[[^]]*\]/, "", s); sub(/\(\*/, "", s); sub(/\)/, "", s); sub(/-fm$/, "", s)
		sub(/\.init\.[0-9]+$/, ".init", s)
		return s
	}
	FNR == NR { linked[key($0)] = 1; next }
	FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); pkg = (pkg == FILENAME) ? "sqlarray" : "sqlarray/" pkg }
	/^func / {
		decl = $0; sub(/^func /, "", decl); recv = ""
		if (decl ~ /^\(/) {
			recv = decl; sub(/\).*/, "", recv); sub(/^\(/, "", recv)
			n = split(recv, f, " "); recv = f[n]; sub(/^\*/, "", recv); sub(/\[.*/, "", recv)
			sub(/^\([^)]*\) /, "", decl); recv = recv "."
		}
		sub(/[[(].*/, "", decl)
		if (!((pkg "." recv decl) in linked)) print FILENAME ":" FNR ": " recv decl
	}' "$tmp/symbols" $src >"$tmp/unlinked"
echo "functions no binary links: $(wc -l <"$tmp/unlinked")"
if [ "$verbose" = 1 ]; then sed 's/^/  /' "$tmp/unlinked"; fi
stale=0
for name in $(grep -o -- "-bench='[^']*'" Makefile | cut -d"'" -f2 | tr '|' '\n'); do
	if ! grep -rqE "^func $name" --include='*_test.go' .; then
		echo "Makefile -bench name $name matches no Benchmark func" >&2
		stale=1
	fi
done
exit $stale
