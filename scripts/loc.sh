#!/usr/bin/env sh
# loc.sh — the size numbers ROADMAP.md tracks, computed the same way every
# time: non-test Go lines of module eris (benchmarks/ is its own module and
# analyzer fixtures under testdata/ are not code of the engine), the same
# count per internal/* package (subpackages included), largest first, and
# the exported surface of eris.go (its exported functions and methods — the
# file declares no exported variables or constants; type declarations are
# printed beside it), and the option counts: the settable (exported) fields
# of eris.Options and of every internal/* Config struct.
set -eu

cd "$(git rev-parse --show-toplevel)"

nontest() {
	find "$1" -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path '*/testdata/*' -exec cat {} + | wc -l
}

echo "non-test Go lines, module eris (excl. benchmarks/): $(nontest .)"
for d in internal/*/; do
	printf '  %6d  %s\n' "$(nontest "./$d")" "${d%/}"
done | sort -rn
echo "exported identifiers in eris.go: $(grep -cE '^func (\([a-z]+ \*?[A-Z][A-Za-z]*\) )?[A-Z]' eris.go) (+ $(grep -cE '^type [A-Z]' eris.go) types)"

# fields FILE TYPE prints the number of exported field names of struct TYPE
# in FILE ("A, B int" counts two; comments and unexported fields do not count).
fields() {
	awk -v t="$2" '
		$0 ~ "^type " t " struct [{]" { inside = 1; next }
		inside && /^}/ { exit }
		inside {
			sub(/\/\/.*/, "")
			if ($1 !~ /^[A-Z]/) next
			n++
			for (i = 1; i <= NF; i++) {
				n += gsub(/,/, ",", $i)
				if ($i !~ /,$/) break
			}
		}
		END { print n + 0 }' "$1"
}

echo "settable fields in eris.Options: $(fields eris.go Options)"
grep -l '^type Config struct' internal/*/*.go | grep -v '_test\.go$' | while read -r f; do
	pkg=${f#internal/}
	printf '  %6d  %s.Config\n' "$(fields "$f" Config)" "${pkg%%/*}"
done
