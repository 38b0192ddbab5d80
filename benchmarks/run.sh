#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it. Everything it writes
# (build cache, binary, WAL files, span files) stays inside the checkout.
#
#   benchmarks/run.sh                                  all workloads, untraced then traced
#   benchmarks/run.sh -workload serve-lookup -seed 7 -seconds 15 -trace 0
#   benchmarks/run.sh -runs 3 -trace 0 -json benchmarks/out/BENCH_mine.json -label mine
#   benchmarks/run.sh -compare A.json B.json
#
# See benchmarks/README.md for the workloads, the metrics and the flags.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$here/out"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ledger" ./ledger)

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"
run=("$build/ledger" -out "$here/out" -commit "$commit" "$@")

# The WAL of serve-upsert-durable belongs on tmpfs: on a shared VM disk the
# disk's moods drown the code's own cost. A benchmark writes only inside its
# checkout, so a tmpfs is mounted over benchmarks/out/wal in a mount namespace
# of this process's own; it vanishes with the process. Where that is not
# permitted the directory stays on the checkout's filesystem. The ledger
# prints which it got (wal_filesystem=).
wal="$here/out/wal"
mkdir -p "$wal"
for ns in -m -Urm; do
	if unshare "$ns" mount -t tmpfs tmpfs "$wal" 2>/dev/null; then
		exec unshare "$ns" sh -c 'mount -t tmpfs tmpfs "$0" && exec "$@"' "$wal" "${run[@]}"
	fi
done
exec "${run[@]}"
