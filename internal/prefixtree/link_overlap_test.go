package prefixtree

// Regression: Link's merge used to assume the grafted subtree was disjoint
// from the target tree. Fault recovery breaks that assumption (a re-fetched
// range can collide with keys the target accepted after adopting the
// bounds), and the old merge then (a) double-counted the colliding keys,
// desynchronizing every counter from the bitmaps, and (b) clobbered the
// target's newer values with the transferred, older ones.

import "testing"

func TestLinkOverlappingKeysKeepsCountsAndNewerValues(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 24, PrefixBits: 8})

	// Source tree: keys [100, 300) with value = key.
	for k := uint64(100); k < 300; k++ {
		f.tree.Upsert(0, k, k, 1)
	}
	ex := f.tree.ExtractRange(0, 100, 299)
	if ex.Count() != 200 {
		t.Fatalf("extracted %d keys, want 200", ex.Count())
	}

	// Target tree already holds a slice of the same range, written later
	// under its own ownership (value = key*10), plus disjoint keys.
	other := NewTree(f.store.NewSession())
	for k := uint64(250); k < 320; k++ {
		other.Upsert(0, k, k*10, 1)
	}

	other.Link(0, ex)

	// 100..249 from the transfer, 250..319 local: 220 distinct keys.
	if got := other.Count(); got != 220 {
		t.Fatalf("count after overlapping link = %d, want 220", got)
	}
	if err := other.CheckCounts(); err != nil {
		t.Fatalf("counters diverged from bitmaps: %v", err)
	}
	for k := uint64(100); k < 320; k++ {
		v, ok := lookupOne(other, 0, k)
		if !ok {
			t.Fatalf("key %d missing after link", k)
		}
		want := k
		if k >= 250 {
			want = k * 10 // local value is newer and must survive the merge
		}
		if v != want {
			t.Fatalf("key %d = %d, want %d", k, v, want)
		}
	}
}

func TestLinkIntoEmptyTreeStillMovesWholeCount(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 24, PrefixBits: 8})
	for k := uint64(0); k < 500; k++ {
		f.tree.Upsert(0, k, k+1, 1)
	}
	ex := f.tree.ExtractRange(0, 0, 499)
	other := NewTree(f.store.NewSession())
	other.Link(0, ex)
	if got := other.Count(); got != 500 {
		t.Fatalf("count = %d, want 500", got)
	}
	if err := other.CheckCounts(); err != nil {
		t.Fatal(err)
	}
}
