package prefixtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestForDomainHeight pins the fitted width: the smallest multiple of
// PrefixBits that holds domain-1, and an explicit KeyBits left alone.
func TestForDomainHeight(t *testing.T) {
	for _, c := range []struct {
		cfg    Config
		domain uint64
		levels int
	}{
		{Config{PrefixBits: 8}, 4 << 20, 3},
		{Config{PrefixBits: 8}, 32 << 20, 4},
		{Config{PrefixBits: 8}, 1<<64 - 1, 8},
		{Config{}, 4 << 20, 3}, // PrefixBits defaults to 8
		{Config{PrefixBits: 8}, 1, 1},
		{Config{PrefixBits: 8}, 256, 1},
		{Config{PrefixBits: 8}, 257, 2},
		{Config{PrefixBits: 4}, 1 << 20, 5},
		{Config{KeyBits: 64, PrefixBits: 8}, 4 << 20, 8},
		{Config{KeyBits: 32, PrefixBits: 8}, 1 << 16, 4},
	} {
		got := c.cfg.ForDomain(c.domain)
		if err := got.Validate(); err != nil {
			t.Fatalf("%+v.ForDomain(%d) = %+v: %v", c.cfg, c.domain, got, err)
		}
		d := got.withDefaults()
		if levels := d.KeyBits / d.PrefixBits; levels != c.levels {
			t.Errorf("%+v.ForDomain(%d): %d levels (KeyBits %d), want %d", c.cfg, c.domain, levels, d.KeyBits, c.levels)
		}
		if d.KeyBits < 64 && c.domain-1 >= 1<<uint(d.KeyBits) {
			t.Errorf("%+v.ForDomain(%d): KeyBits %d does not hold the domain", c.cfg, c.domain, d.KeyBits)
		}
	}
}

// TestKeyWidthEquivalence runs one seeded sequence of upserts, deletes,
// batch lookups, range scans, a link transfer (same store) and a copy
// transfer (flatten, rebuild on the other node) on trees of the fitted
// 24-bit width and of 64-bit keys, and requires identical answers.
func TestKeyWidthEquivalence(t *testing.T) {
	fitted := keyWidthTranscript(t, Config{PrefixBits: 8}.ForDomain(1<<20))
	wide := keyWidthTranscript(t, Config{KeyBits: 64, PrefixBits: 8})
	if len(fitted) != len(wide) {
		t.Fatalf("transcripts differ in length: %d vs %d", len(fitted), len(wide))
	}
	for i := range fitted {
		if fitted[i] != wide[i] {
			t.Fatalf("step %d differs:\n fitted: %s\n 64-bit: %s", i, fitted[i], wide[i])
		}
	}
}

func keyWidthTranscript(t *testing.T, cfg Config) []string {
	t.Helper()
	f := newFixture(t, cfg)
	other := NewTree(f.sess) // link target: same store
	store2, err := NewStore(f.machine, f.sys.Node(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	copied := NewTree(store2.NewSession()) // copy target: core 10 lives on node 1

	var out []string
	rng := rand.New(rand.NewSource(17))
	key := func() uint64 { return uint64(rng.Intn(1 << 20)) }
	scan := func(tree *Tree, lo, hi uint64) string {
		var kvs []KV
		n := tree.Scan(0, lo, hi, func(k, v uint64) bool {
			kvs = append(kvs, KV{Key: k, Value: v})
			return true
		})
		return fmt.Sprint(n, kvs)
	}
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0:
			kvs := make([]KV, 32)
			for i := range kvs {
				kvs[i] = KV{Key: key(), Value: rng.Uint64()}
			}
			out = append(out, fmt.Sprint("upsert ", f.tree.UpsertBatch(0, kvs)))
		case 1:
			keys := make([]uint64, 8)
			for i := range keys {
				keys[i] = key()
			}
			out = append(out, fmt.Sprint("delete ", f.tree.DeleteBatch(0, keys)))
		case 2:
			keys := make([]uint64, 32)
			for i := range keys {
				keys[i] = key()
			}
			slices.Sort(keys)
			values, found := make([]uint64, len(keys)), make([]bool, len(keys))
			f.tree.LookupBatch(0, keys, values, found)
			out = append(out, fmt.Sprint("lookup ", values, found))
		default:
			lo := key()
			out = append(out, "scan "+scan(f.tree, lo, lo+uint64(rng.Intn(1<<12))))
		}
	}
	// Link: a range moves by reference to a tree on the same store.
	ex := f.tree.ExtractRange(0, 1<<18, 3<<17)
	other.Link(0, ex)
	// Copy: a range is flattened and rebuilt on node 1's store.
	ex = f.tree.ExtractRange(0, 1<<19, 3<<18)
	kvs := ex.Flatten(0)
	ex.Discard(0, f.sess)
	copied.RebuildFrom(10, kvs)
	for _, tree := range []*Tree{f.tree, other, copied} {
		if err := tree.CheckCounts(); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprint("count ", tree.Count()), "all "+scan(tree, 0, 1<<20-1))
	}
	return out
}
