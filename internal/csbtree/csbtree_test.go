package csbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mustBuild wraps Build for statically valid tables.
func mustBuild(entries []Entry) *Tree {
	t, err := Build(entries)
	if err != nil {
		panic(err)
	}
	return t
}

func uniformEntries(n int) []Entry {
	entries := make([]Entry, n)
	span := ^uint64(0) / uint64(n)
	for i := range entries {
		entries[i] = Entry{Low: uint64(i) * span, Owner: uint32(i)}
	}
	entries[0].Low = 0
	return entries
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Build([]Entry{{Low: 5}}); err == nil {
		t.Error("non-zero first Low accepted")
	}
	if _, err := Build([]Entry{{Low: 0}, {Low: 10}, {Low: 10}}); err == nil {
		t.Error("duplicate Low accepted")
	}
	if _, err := Build([]Entry{{Low: 0}, {Low: 10}, {Low: 5}}); err == nil {
		t.Error("unsorted entries accepted")
	}
}

func TestLookupSingleEntry(t *testing.T) {
	tr := mustBuild([]Entry{{Low: 0, Owner: 7}})
	for _, k := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		if got := tr.Lookup(k); got != 7 {
			t.Errorf("Lookup(%d) = %d", k, got)
		}
	}
}

func TestLookupBoundaries(t *testing.T) {
	entries := []Entry{{0, 0}, {100, 1}, {200, 2}, {300, 3}}
	tr := mustBuild(entries)
	cases := []struct {
		key  uint64
		want uint32
	}{
		{0, 0}, {99, 0}, {100, 1}, {101, 1}, {199, 1}, {200, 2}, {299, 2}, {300, 3}, {1 << 50, 3},
	}
	for _, c := range cases {
		if got := tr.Lookup(c.key); got != c.want {
			t.Errorf("Lookup(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

// TestLookupEntryBounds checks that each entry owns [Low, next Low): both
// edges of an inner range resolve to it, and the last range is unbounded
// above.
func TestLookupEntryBounds(t *testing.T) {
	tr := mustBuild([]Entry{{0, 0}, {100, 1}, {200, 2}})
	for _, c := range []struct {
		key  uint64
		want uint32
	}{{100, 1}, {150, 1}, {199, 1}, {200, 2}, {500, 2}, {^uint64(0), 2}} {
		if got := tr.Lookup(c.key); got != c.want {
			t.Errorf("Lookup(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestLargeTableAgainstFlat(t *testing.T) {
	for _, n := range []int{1, 2, 14, 15, 16, 100, 512, 1000, 5000} {
		entries := uniformEntries(n)
		tr := mustBuild(entries)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 2000; i++ {
			k := rng.Uint64()
			if got, want := tr.Lookup(k), entries[flatLookup(entries, k)].Owner; got != want {
				t.Fatalf("n=%d: Lookup(%d) = %d, want %d", n, k, got, want)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 100 && tr.height == 0 {
			t.Errorf("n=%d: tree degenerated to height 0", n)
		}
	}
}

func TestRandomBoundariesProperty(t *testing.T) {
	check := func(raw []uint64) bool {
		lows := map[uint64]bool{0: true}
		for _, r := range raw {
			lows[r] = true
		}
		entries := make([]Entry, 0, len(lows))
		for low := range lows {
			entries = append(entries, Entry{Low: low, Owner: uint32(len(entries))})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Low < entries[j].Low })
		for i := range entries {
			entries[i].Owner = uint32(i)
		}
		tr, err := Build(entries)
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeLookup(b *testing.B) {
	tr := mustBuild(uniformEntries(512))
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(keys[i&1023])
	}
}
