package colstore

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/topology"
)

type fixture struct {
	machine *numasim.Machine
	sys     *mem.System
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	machine, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{machine: machine, sys: mem.NewSystem(machine)}
}

func (f *fixture) local(node topology.NodeID, chunkEntries int) *Column {
	return NewLocal(f.machine, Config{ChunkEntries: chunkEntries}, f.sys.Node(node))
}

func seq(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// hashed returns n values spread over the whole u64 domain: a hash of the
// position, so every block's zone map spans (nearly) the full range.
func hashed(n int) []uint64 {
	out := seq(n)
	for i, v := range out {
		v ^= v >> 33
		v *= 0xff51afd7ed558ccd
		v ^= v >> 33
		out[i] = v
	}
	return out
}

func TestAppendScanRoundtrip(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 16)
	col.Append(0, seq(100)) // spans several chunks
	if got := col.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	got := col.Values(0, col.Snapshot())
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("value[%d] = %d", i, v)
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 16)
	col.Append(0, seq(50))
	snap := col.Snapshot()
	col.Append(0, seq(50))
	for _, c := range []struct {
		snap int64
		want int
	}{{snap, 50}, {col.Snapshot(), 100}} {
		if n := len(col.Values(0, c.snap)); n != c.want {
			t.Errorf("Values at snapshot %d saw %d entries, want %d", c.snap, n, c.want)
		}
		if r := col.ScanFiltered(0, c.snap, Predicate{Op: All}); r.Scanned != int64(c.want) || r.Matched != int64(c.want) {
			t.Errorf("ScanFiltered at snapshot %d = %+v, want %d scanned and matched", c.snap, r, c.want)
		}
	}
}

func TestScanFiltered(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 32)
	col.Append(0, seq(100))
	cases := []struct {
		p           Predicate
		matched     int64
		sumExpected bool
		sum         uint64
	}{
		{Predicate{Op: All}, 100, true, 4950},
		{Predicate{Op: Less, Operand: 10}, 10, true, 45},
		{Predicate{Op: Greater, Operand: 97}, 2, true, 98 + 99},
		{Predicate{Op: Equal, Operand: 42}, 1, true, 42},
		{Predicate{Op: Between, Operand: 10, High: 19}, 10, true, 145},
	}
	for _, c := range cases {
		res := col.ScanFiltered(0, col.Snapshot(), c.p)
		if res.Scanned != 100 || res.Matched != c.matched || res.Sum != c.sum {
			t.Errorf("pred %+v: %+v", c.p, res)
		}
	}
}

// TestScanChargesBandwidth checks that reading a column's values charges
// their bytes on the memory controller of the blocks' home node, and on the
// links when the reading core sits on another node.
func TestScanChargesBandwidth(t *testing.T) {
	f := newFixture(t)
	col := f.local(2, 1024)
	col.Append(20, hashed(4096)) // core 20 is on node 2: local append
	// Every block spans (nearly) the whole domain, so this predicate
	// evaluates every block and streams all of its bytes.
	p := Predicate{Op: Less, Operand: 1 << 63}
	for _, c := range []struct {
		name string
		read func(core topology.CoreID)
	}{
		{"Values", func(core topology.CoreID) { col.Values(core, col.Snapshot()) }},
		{"ScanFiltered", func(core topology.CoreID) {
			if r := col.ScanFiltered(core, col.Snapshot(), p); r.BlocksScanned != 4 {
				t.Errorf("ScanFiltered evaluated %d blocks, want 4", r.BlocksScanned)
			}
		}},
	} {
		e := f.machine.StartEpoch()
		c.read(20)
		if got := e.MCBytes(2); got != 4096*8 {
			t.Errorf("%s: MC bytes = %d, want %d", c.name, got, 4096*8)
		}
		if got := e.TotalLinkBytes(); got != 0 {
			t.Errorf("%s: local read produced %d link bytes", c.name, got)
		}
		// A remote read crosses links.
		e2 := f.machine.StartEpoch()
		c.read(0) // core 0 on node 0
		if got := e2.TotalLinkBytes(); got != 4096*8 {
			t.Errorf("%s: remote read link bytes = %d", c.name, got)
		}
	}
}

func TestDetachTailWholeChunks(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 10)
	col.Append(0, seq(40))
	d := col.DetachTail(0, 20)
	if d.Count() != 20 || col.Count() != 20 {
		t.Fatalf("detach: moved %d, left %d", d.Count(), col.Count())
	}
	// Remaining values unchanged.
	for i, v := range col.Values(0, col.Snapshot()) {
		if v != uint64(i) {
			t.Fatalf("kept value[%d] = %d", i, v)
		}
	}
	// Relink to another column on the same node preserves order.
	col2 := f.local(0, 10)
	if err := col2.LinkDetached(0, 0, d); err != nil {
		t.Fatal(err)
	}
	vals := col2.Values(0, col2.Snapshot())
	for i, v := range vals {
		if v != uint64(20+i) {
			t.Fatalf("linked value[%d] = %d, want %d", i, v, 20+i)
		}
	}
}

func TestDetachTailSplitsChunk(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 10)
	col.Append(0, seq(25))
	d := col.DetachTail(0, 7) // chunk boundary at 20: moves 5 whole + splits 2
	if d.Count() != 7 || col.Count() != 18 {
		t.Fatalf("moved %d, left %d", d.Count(), col.Count())
	}
	col2 := f.local(0, 10)
	if err := col2.LinkDetached(0, 0, d); err != nil {
		t.Fatal(err)
	}
	vals := col2.Values(0, col2.Snapshot())
	if len(vals) != 7 {
		t.Fatalf("linked %d values", len(vals))
	}
	for i, v := range vals {
		if v != uint64(18+i) {
			t.Fatalf("split value[%d] = %d, want %d", i, v, 18+i)
		}
	}
}

// TestDetachTailSplitKeepsExactness detaches across a block boundary. The
// kept block's zone map stays a superset of the values it still holds, so
// scans over both halves must stay exact whether they prune, evaluate or
// accept the kept block whole from its sum, which stays exact by
// subtraction.
func TestDetachTailSplitKeepsExactness(t *testing.T) {
	f := newFixture(t)
	src := f.local(0, 64)
	src.Append(0, seq(160))     // blocks [0,63], [64,127], [128,159]
	d := src.DetachTail(0, 100) // values [60,159]: split block 0 at 60
	dst := f.local(0, 64)
	if err := dst.LinkDetached(0, 0, d); err != nil {
		t.Fatal(err)
	}
	if src.Count() != 60 || dst.Count() != 100 {
		t.Fatalf("split detach left (%d, %d), want (60, 100)", src.Count(), dst.Count())
	}
	for _, p := range []Predicate{
		{Op: All},
		{Op: Between, Operand: 0, High: 63},  // contains the kept block's zone map
		{Op: Between, Operand: 60, High: 63}, // only moved values; the kept block's max still overlaps
		{Op: Greater, Operand: 150},
	} {
		checkScan(t, src, p)
		checkScan(t, dst, p)
	}
	res := src.ScanFiltered(0, src.Snapshot(), Predicate{Op: Between, Operand: 0, High: 63})
	if res.BlocksFullHit != 1 || res.Matched != 60 || res.Sum != 59*60/2 {
		t.Fatalf("kept block = %+v, want one full hit of 60 values summing to %d", res, 59*60/2)
	}
}

func TestDetachMoreThanCount(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 10)
	col.Append(0, seq(5))
	d := col.DetachTail(0, 100)
	if d.Count() != 5 || col.Count() != 0 {
		t.Fatalf("moved %d, left %d", d.Count(), col.Count())
	}
}

func TestLinkDetachedRejectsRemoteChunks(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 10)
	col.Append(0, seq(10))
	d := col.DetachTail(0, 10)
	col2 := f.local(1, 10)
	if err := col2.LinkDetached(10, 1, d); err == nil {
		t.Fatal("linking remote chunks did not fail")
	}
}

func TestCopyDetachedCrossNode(t *testing.T) {
	f := newFixture(t)
	src := f.local(0, 10)
	src.Append(0, seq(35))
	d := src.DetachTail(0, 25)
	dst := f.local(1, 10)
	e := f.machine.StartEpoch()
	dst.CopyDetached(10, d, f.sys.Free) // core 10 on node 1
	if dst.Count() != 25 {
		t.Fatalf("copied %d", dst.Count())
	}
	vals := dst.Values(10, dst.Snapshot())
	for i, v := range vals {
		if v != uint64(10+i) {
			t.Fatalf("copied value[%d] = %d, want %d", i, v, 10+i)
		}
	}
	// The copy must have crossed the interconnect.
	if e.TotalLinkBytes() == 0 {
		t.Error("cross-node copy produced no link traffic")
	}
	// Source blocks were released: node 0 holds only the retained block.
	if got := f.sys.Node(0).AllocatedBytes(); got != 10*8 {
		t.Errorf("node 0 allocated %d, want %d (only the retained chunk)", got, 10*8)
	}
}

func TestDetachLinkProperty(t *testing.T) {
	f := newFixture(t)
	check := func(total16, move16 uint16) bool {
		total := int(total16%500) + 1
		move := int64(move16) % (int64(total) + 1)
		col := f.local(0, 13)
		col.Append(0, seq(total))
		d := col.DetachTail(0, move)
		col2 := f.local(0, 13)
		if err := col2.LinkDetached(0, 0, d); err != nil {
			return false
		}
		if col.Count()+col2.Count() != int64(total) {
			return false
		}
		// Concatenation equals the original sequence.
		vals := append(col.Values(0, col.Snapshot()), col2.Values(0, col2.Snapshot())...)
		for i, v := range vals {
			if v != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSharedScans(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 256)
	col.Append(0, seq(10000))
	snapshot := col.Snapshot() // taken before the concurrent appends begin
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(core topology.CoreID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(core)))
			for i := 0; i < 20; i++ {
				res := col.ScanFiltered(core, snapshot, Predicate{Op: Less, Operand: uint64(rng.Intn(10000))})
				if res.Scanned != 10000 {
					t.Errorf("scanned %d", res.Scanned)
					return
				}
			}
		}(topology.CoreID(w))
	}
	// Concurrent appends must not disturb snapshot scans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			col.Append(0, seq(100))
		}
	}()
	wg.Wait()
}

// TestColumnWidthModel drives three columns through random appends,
// widenings and transfers and compares every result against a plain
// []uint64 oracle per column. Blocks hold values as uint32 while they fit,
// so the model crosses every width change: narrow appends, a value >= 2^32
// in the middle of a narrow block, DetachTail splits of narrow and of wide
// blocks, LinkDetached (the block keeps its width) and CopyDetached across
// nodes (the data picks the copy's width), then Values, ScanFiltered and
// SharedScan with random predicates at random snapshots.
func TestColumnWidthModel(t *testing.T) {
	const chunk = 16
	f := newFixture(t)
	cols := []*Column{f.local(0, chunk), f.local(0, chunk), f.local(1, chunk)}
	cores := []topology.CoreID{0, 0, 10} // core 10 is on node 1
	oracle := make([][]uint64, len(cols))
	rng := rand.New(rand.NewSource(42))

	narrowValue := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return []uint64{0, 1<<31 - 1, 1 << 31, math.MaxUint32}[rng.Intn(4)]
		case 1:
			return uint64(rng.Intn(100))
		default:
			return uint64(rng.Uint32())
		}
	}
	wideValue := func() uint64 {
		return []uint64{1 << 32, math.MaxUint64, 1<<32 + uint64(rng.Uint32()), rng.Uint64() | 1<<40}[rng.Intn(4)]
	}
	tail := func(c *Column) *block { return &c.blocks[len(c.blocks)-1] }
	// checkWidths checks that a block is narrow exactly while its zone map
	// stays within 32 bits: zmax is exact or, on a kept split half, a
	// superset that a narrow block cannot have.
	checkWidths := func(step, ci int) {
		for bi := range cols[ci].blocks {
			b := &cols[ci].blocks[bi]
			narrow := b.narrow != nil
			if narrow == (b.data != nil) || narrow != (b.zmax <= math.MaxUint32) {
				t.Fatalf("step %d: column %d block %d: narrow %v, wide %v, zmax %d",
					step, ci, bi, narrow, b.data != nil, b.zmax)
			}
		}
	}
	pred := func(ci int) Predicate {
		pick := func() uint64 {
			if o := oracle[ci]; len(o) > 0 && rng.Intn(2) == 0 {
				return o[rng.Intn(len(o))] + uint64(rng.Intn(3)) - 1
			}
			return []uint64{0, math.MaxUint32, 1 << 32, math.MaxUint64, uint64(rng.Uint32())}[rng.Intn(5)]
		}
		switch rng.Intn(5) {
		case 0:
			return Predicate{Op: All}
		case 1:
			return Predicate{Op: Less, Operand: pick()}
		case 2:
			return Predicate{Op: Greater, Operand: pick()}
		case 3:
			return Predicate{Op: Equal, Operand: pick()}
		}
		lo, hi := pick(), pick()
		if rng.Intn(4) != 0 && lo > hi {
			lo, hi = hi, lo
		}
		return Predicate{Op: Between, Operand: lo, High: hi}
	}
	var widened, narrowSplits, wideSplits, links, copies int
	for step := 0; step < 600; step++ {
		ci := rng.Intn(len(cols))
		col := cols[ci]
		switch op := rng.Intn(10); {
		case op < 4: // narrow appends
			vals := make([]uint64, 1+rng.Intn(2*chunk))
			for i := range vals {
				vals[i] = narrowValue()
			}
			col.Append(cores[ci], vals)
			oracle[ci] = append(oracle[ci], vals...)
		case op < 6: // a value >= 2^32 lands in the middle of the tail block
			if len(col.blocks) == 0 || tail(col).narrow == nil || tail(col).used > chunk-2 {
				v := narrowValue()
				col.Append(cores[ci], []uint64{v})
				oracle[ci] = append(oracle[ci], v)
				break
			}
			b := len(col.blocks) - 1
			vals := []uint64{narrowValue(), wideValue(), narrowValue()}
			col.Append(cores[ci], vals)
			oracle[ci] = append(oracle[ci], vals...)
			if col.blocks[b].data == nil {
				t.Fatalf("step %d: block %d still narrow after a value >= 2^32", step, b)
			}
			widened++
		default: // move the tail to another column
			if len(col.blocks) == 0 {
				continue
			}
			n := int64(rng.Intn(3*chunk)) + 1
			if last := tail(col); n < int64(last.used) {
				if last.narrow != nil {
					narrowSplits++
				} else {
					wideSplits++
				}
			}
			n = min(n, col.Count())
			d := col.DetachTail(cores[ci], n)
			moved := oracle[ci][len(oracle[ci])-int(n):]
			oracle[ci] = oracle[ci][:len(oracle[ci])-int(n)]
			dst := rng.Intn(len(cols))
			if ci != 2 && dst != 2 { // both on node 0: link by reference
				if err := cols[dst].LinkDetached(cores[dst], 0, d); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				links++
			} else {
				cols[dst].CopyDetached(cores[dst], d, f.sys.Free)
				copies++
			}
			oracle[dst] = append(oracle[dst], moved...)
		}
		for ci := range cols {
			checkWidths(step, ci)
			col := cols[ci]
			got := col.Values(0, col.Snapshot())
			if len(got) != len(oracle[ci]) {
				t.Fatalf("step %d: column %d holds %d values, oracle %d", step, ci, len(got), len(oracle[ci]))
			}
			for i := range got {
				if got[i] != oracle[ci][i] {
					t.Fatalf("step %d: column %d value %d = %d, oracle %d", step, ci, i, got[i], oracle[ci][i])
				}
			}
			snap := int64(len(got))
			if snap > 0 && rng.Intn(3) == 0 {
				snap = rng.Int63n(snap + 1)
			}
			preds := []Predicate{pred(ci), pred(ci), pred(ci)}
			preds[2] = preds[rng.Intn(2)] // a repeat shares a kernel run
			specs := make([]ScanSpec, len(preds))
			for i, p := range preds {
				specs[i] = SpecOf(p)
			}
			aggs := make([]ScanAgg, len(specs))
			var scratch ScanScratch
			col.SharedScan(0, snap, specs, aggs, &scratch)
			for i, p := range preds {
				var wantM, wantS uint64
				for _, v := range oracle[ci][:snap] {
					if p.Matches(v) {
						wantM++
						wantS += v
					}
				}
				if aggs[i] != (ScanAgg{Matched: wantM, Sum: wantS}) {
					t.Fatalf("step %d: column %d SharedScan(%+v) at %d = %+v, oracle (%d, %d)",
						step, ci, p, snap, aggs[i], wantM, wantS)
				}
				if r := col.ScanFiltered(0, snap, p); r.Scanned != snap || uint64(r.Matched) != wantM || r.Sum != wantS {
					t.Fatalf("step %d: column %d ScanFiltered(%+v) at %d = %+v, oracle (%d, %d)",
						step, ci, p, snap, r, wantM, wantS)
				}
			}
		}
	}
	t.Logf("widened %d, narrow splits %d, wide splits %d, links %d, copies %d",
		widened, narrowSplits, wideSplits, links, copies)
	if widened == 0 || narrowSplits == 0 || wideSplits == 0 || links == 0 || copies == 0 {
		t.Fatal("the model missed a width change it is meant to cover")
	}
}
