package command

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eris/internal/colstore"
	"eris/internal/prefixtree"
)

func roundtrip(t *testing.T, c Command) Command {
	t.Helper()
	buf := c.AppendEncode(nil)
	if len(buf) != c.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), c.EncodedSize())
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
	}
	return got
}

func TestLookupRoundtrip(t *testing.T) {
	c := Command{Op: OpLookup, Object: 3, Source: 17, ReplyTo: 4, Tag: 99, Keys: []uint64{1, 2, 1 << 60}}
	got := roundtrip(t, c)
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("got %+v, want %+v", got, c)
	}
}

func TestEmptyLookupRoundtrip(t *testing.T) {
	c := Command{Op: OpLookup, Object: 1, Source: 2, ReplyTo: NoReply}
	got := roundtrip(t, c)
	if got.ReplyTo != NoReply || len(got.Keys) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestUpsertAndResultRoundtrip(t *testing.T) {
	kvs := []prefixtree.KV{{Key: 1, Value: 2}, {Key: ^uint64(0), Value: 0}}
	for _, op := range []Op{OpUpsert, OpResult} {
		c := Command{Op: op, Object: 9, Source: 1, ReplyTo: NoReply, Tag: 5, KVs: kvs}
		got := roundtrip(t, c)
		if !reflect.DeepEqual(got.KVs, kvs) {
			t.Fatalf("%v: got %+v", op, got.KVs)
		}
	}
}

func TestScanRoundtrip(t *testing.T) {
	c := Command{
		Op: OpScan, Object: 2, Source: 8, ReplyTo: 8, Tag: 77,
		Pred: colstore.Predicate{Op: colstore.Between, Operand: 10, High: 20},
		Keys: []uint64{100, 200},
	}
	got := roundtrip(t, c)
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("got %+v, want %+v", got, c)
	}
}

func TestBalanceRoundtrip(t *testing.T) {
	c := Command{
		Op: OpBalance, Object: 1, Source: 0, ReplyTo: NoReply,
		Balance: &Balance{
			Epoch: 42, NewLo: 1000, NewHi: 1999,
			Fetches: []Fetch{
				{From: 3, Lo: 1000, Hi: 1499},
				{From: 5, Tuples: 12345},
			},
		},
	}
	got := roundtrip(t, c)
	if !reflect.DeepEqual(got.Balance, c.Balance) {
		t.Fatalf("got %+v, want %+v", got.Balance, c.Balance)
	}
}

func TestBalanceNoFetches(t *testing.T) {
	c := Command{Op: OpBalance, Balance: &Balance{Epoch: 1, NewLo: 5, NewHi: 6}}
	got := roundtrip(t, c)
	if got.Balance.Epoch != 1 || len(got.Balance.Fetches) != 0 {
		t.Fatalf("got %+v", got.Balance)
	}
}

func TestFetchRoundtrip(t *testing.T) {
	c := Command{Op: OpFetch, Object: 7, Source: 2, Fetch: &Fetch{From: 2, Lo: 10, Hi: 20, Tuples: -1}}
	got := roundtrip(t, c)
	if !reflect.DeepEqual(got.Fetch, c.Fetch) {
		t.Fatalf("got %+v", got.Fetch)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrTruncated {
		t.Errorf("nil: %v", err)
	}
	if _, _, err := Decode(make([]byte, 5)); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	// Zeroed space decodes as OpInvalid.
	if _, _, err := Decode(make([]byte, 64)); err == nil {
		t.Error("zeroed buffer decoded")
	}
	// Truncated payload.
	c := Command{Op: OpLookup, Keys: []uint64{1, 2, 3}}
	buf := c.AppendEncode(nil)
	if _, _, err := Decode(buf[:len(buf)-4]); err != ErrTruncated {
		t.Errorf("truncated payload: %v", err)
	}
}

func TestDecodeAll(t *testing.T) {
	var buf []byte
	want := []Command{
		{Op: OpLookup, Object: 1, ReplyTo: NoReply, Keys: []uint64{5}},
		{Op: OpUpsert, Object: 2, ReplyTo: NoReply, KVs: []prefixtree.KV{{Key: 1, Value: 2}}},
		{Op: OpScan, Object: 3, ReplyTo: 7, Pred: colstore.Predicate{Op: colstore.All}},
	}
	for i := range want {
		buf = want[i].AppendEncode(buf)
	}
	var got []Command
	for len(buf) > 0 {
		c, n, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c)
		buf = buf[n:]
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d commands", len(got))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Object != want[i].Object {
			t.Fatalf("command %d: %+v", i, got[i])
		}
	}
}

func TestEncodedSizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(op8 uint8, nKeys8 uint8, tag uint64) bool {
		op := Op(op8%uint8(numOps-1)) + 1
		c := Command{Op: op, Object: rng.Uint32(), Source: rng.Uint32(), ReplyTo: int32(rng.Int31()), Tag: tag}
		n := int(nKeys8 % 32)
		switch op {
		case OpLookup, OpScan:
			for i := 0; i < n; i++ {
				c.Keys = append(c.Keys, rng.Uint64())
			}
		case OpUpsert, OpResult:
			for i := 0; i < n; i++ {
				c.KVs = append(c.KVs, prefixtree.KV{Key: rng.Uint64(), Value: rng.Uint64()})
			}
		case OpBalance:
			b := &Balance{Epoch: rng.Uint64(), NewLo: rng.Uint64(), NewHi: rng.Uint64()}
			for i := 0; i < n%5; i++ {
				b.Fetches = append(b.Fetches, Fetch{From: rng.Uint32(), Lo: rng.Uint64(), Hi: rng.Uint64()})
			}
			c.Balance = b
		case OpFetch:
			c.Fetch = &Fetch{From: rng.Uint32(), Tuples: rng.Int63()}
		}
		buf := c.AppendEncode(nil)
		if len(buf) != c.EncodedSize() {
			return false
		}
		got, consumed, err := Decode(buf)
		if err != nil || consumed != len(buf) {
			return false
		}
		return got.Op == c.Op && got.Tag == c.Tag && got.Source == c.Source
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyPayloadsDecodeNil(t *testing.T) {
	// Wire-empty batches must decode to nil (not empty non-nil) slices so
	// the hot path allocates nothing for them, and re-encoding the decoded
	// command must reproduce the original bytes.
	cases := []Command{
		{Op: OpLookup, Object: 1, ReplyTo: NoReply, Keys: []uint64{}},
		{Op: OpUpsert, Object: 2, ReplyTo: NoReply, KVs: []prefixtree.KV{}},
		{Op: OpResult, Object: 3, ReplyTo: NoReply},
		{Op: OpScan, Object: 4, ReplyTo: 1, Pred: colstore.Predicate{Op: colstore.All}},
	}
	for _, c := range cases {
		buf := c.AppendEncode(nil)
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("%v: decode: %v (%d of %d bytes)", c.Op, err, n, len(buf))
		}
		if got.Keys != nil || got.KVs != nil {
			t.Errorf("%v: empty payload decoded non-nil: Keys=%v KVs=%v", c.Op, got.Keys, got.KVs)
		}
		if back := got.AppendEncode(nil); !reflect.DeepEqual(back, buf) {
			t.Errorf("%v: re-encode mismatch: %v vs %v", c.Op, back, buf)
		}
		var d Decoder
		var view Command
		if _, err := d.DecodeInto(&view, buf); err != nil {
			t.Fatalf("%v: DecodeInto: %v", c.Op, err)
		}
		if view.Keys != nil || view.KVs != nil {
			t.Errorf("%v: empty payload view non-nil", c.Op)
		}
	}
}

// TestDecodeIntoMatchesDecode drives both decoders over the same frames at
// every possible payload alignment; the view decoder must produce the same
// commands whether it aliases the buffer or falls back to scratch.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	cmds := []Command{
		{Op: OpLookup, Object: 3, Source: 17, ReplyTo: 4, Tag: 99, Keys: []uint64{1, 2, 1 << 60}},
		{Op: OpUpsert, Object: 9, ReplyTo: NoReply, Tag: 5, KVs: []prefixtree.KV{{Key: 1, Value: 2}, {Key: ^uint64(0)}}},
		{Op: OpResult, Object: 9, Source: 3, ReplyTo: NoReply, Tag: 5, KVs: []prefixtree.KV{{Key: 7, Value: 8}}},
		{Op: OpScan, Object: 2, ReplyTo: 8, Pred: colstore.Predicate{Op: colstore.Between, Operand: 10, High: 20}, Keys: []uint64{100, 200}},
		{Op: OpBalance, Object: 1, Balance: &Balance{Epoch: 42, NewLo: 7, NewHi: 9, Fetches: []Fetch{{From: 3, Lo: 1, Hi: 2}}}},
		{Op: OpFetch, Object: 7, Fetch: &Fetch{From: 2, Lo: 10, Hi: 20, Tuples: -1}},
	}
	var d Decoder
	for _, c := range cmds {
		for pad := 0; pad < 8; pad++ {
			raw := c.AppendEncode(make([]byte, pad, pad+c.EncodedSize()))
			buf := raw[pad:]
			want, n, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			var got Command
			m, err := d.DecodeInto(&got, buf)
			if err != nil || m != n {
				t.Fatalf("%v pad %d: DecodeInto consumed %d err %v", c.Op, pad, m, err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("%v pad %d: got %+v, want %+v", c.Op, pad, got, want)
			}
		}
	}
}

// normalize copies view-backed slices so DeepEqual compares content.
func normalize(c Command) Command { return c.Clone() }

func TestCloneDetachesViews(t *testing.T) {
	c := Command{Op: OpLookup, Object: 1, ReplyTo: NoReply, Keys: []uint64{1, 2, 3}}
	buf := c.AppendEncode(nil)
	var d Decoder
	var view Command
	if _, err := d.DecodeInto(&view, buf); err != nil {
		t.Fatal(err)
	}
	clone := view.Clone()
	// Overwrite the encoded payload; the view may change, the clone must not.
	for i := headerBytes + 4; i < len(buf); i++ {
		buf[i] = 0xff
	}
	var second Command
	if _, err := d.DecodeInto(&second, buf); err != nil { // also recycles scratch
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clone.Keys, []uint64{1, 2, 3}) {
		t.Fatalf("clone mutated: %v", clone.Keys)
	}
	b := Command{Op: OpBalance, Balance: &Balance{Epoch: 1, Fetches: []Fetch{{From: 9}}}}
	bc := b.Clone()
	b.Balance.Fetches[0].From = 1
	if bc.Balance.Fetches[0].From != 9 {
		t.Fatal("balance clone shares fetches")
	}
}

func TestOpString(t *testing.T) {
	for op := OpLookup; op < numOps; op++ {
		if s := op.String(); s == "" || s[0] == 'O' {
			t.Errorf("Op(%d).String() = %q", op, s)
		}
	}
	if s := Op(200).String(); s != "Op(200)" {
		t.Errorf("unknown op string = %q", s)
	}
}
