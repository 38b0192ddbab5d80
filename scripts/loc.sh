#!/usr/bin/env sh
# loc.sh — the size numbers ROADMAP.md tracks, computed the same way every
# time: non-test Go lines of module eris (benchmarks/ is its own module and
# analyzer fixtures under testdata/ are not code of the engine), the same
# count per internal/* package (subpackages included), largest first, and
# the exported surface of eris.go (its exported functions and methods — the
# file declares no exported variables or constants; type declarations are
# printed beside it).
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
