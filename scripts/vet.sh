#!/usr/bin/env sh
# vet.sh — the repo's lint gate, identical locally and in CI: gofmt,
# go vet, the in-tree erisvet analyzer suite (see internal/analysis and
# DESIGN.md "Static invariant enforcement"), vet and the smoke test of the
# benchmark ledger module, and shellcheck over scripts/ when it is
# installed.
#
# Deviation from the original plan: erisvet was meant to be built on a
# pinned golang.org/x/tools/go/analysis, but the build environment is
# hermetic (no module proxy), so internal/analysis implements the same
# analyzer surface on the standard library alone and there is nothing to
# pin in go.mod. Swapping the framework back for x/tools only touches
# internal/analysis; the analyzers and this entry point stay as they are.
set -eu

repo=$(git rev-parse --show-toplevel)
cd "$repo"

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== erisvet"
go run ./cmd/erisvet ./...

# benchmarks/ is its own module: the steps above do not compile the ledger,
# although it imports engine internals.
echo "== benchmark ledger (vet + smoke test)"
(cd benchmarks && go vet ./... && go test ./...)

echo "== shellcheck"
if command -v shellcheck >/dev/null 2>&1; then
	shellcheck scripts/*.sh
else
	echo "shellcheck not installed; skipping (the CI lint job runs it)"
fi
