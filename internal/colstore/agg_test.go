package colstore

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzAggInterval checks the kernel this CPU runs (the AVX2 assembly on
// amd64 with AVX2) against the portable Go kernel, and aggInterval against
// the definition lo <= v <= hi. Values come from the input bytes, eight
// little-endian bytes each, so the lengths cross the kernel's groups of
// eight and its tail.
func FuzzAggInterval(f *testing.F) {
	edges := []uint64{0, math.MaxUint64, 1<<63 - 1, 1 << 63}
	values := func(n int) []byte {
		b := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			v := edges[i%len(edges)]
			if i%3 == 2 {
				v = uint64(i) * 0x9e3779b97f4a7c15
			}
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		return b
	}
	bounds := [][2]uint64{
		{0, math.MaxUint64},                  // All
		{1<<63 - 1, 1<<63 - 1},               // Equal, below the sign bit
		{1 << 63, 1 << 63},                   // Equal, at the sign bit
		{0, 0},                               // Equal 0
		{math.MaxUint64, math.MaxUint64},     // Equal MaxUint64
		{1<<63 - 1, 1 << 63},                 // straddles the sign bit
		{1 << 63, 1<<63 - 1},                 // lo > hi
		{math.MaxUint64, 0},                  // lo > hi
		{1000, 1 << 62},                      // an ordinary Between
		{0, 1<<63 - 1},                       // Less 1<<63
		{1 << 63, math.MaxUint64},            // Greater 1<<63-1
		{math.MaxUint64 - 5, math.MaxUint64}, // top of the domain
	}
	for _, n := range []int{0, 1, 7, 8, 9, 4095, 4096} {
		for _, bd := range bounds {
			f.Add(values(n), bd[0], bd[1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint64) {
		vals := make([]uint64, len(data)/8)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		width := hi - lo
		gotMiss, gotSum := intervalKernel(vals, lo, width)
		wantMiss, wantSum := aggIntervalGo(vals, lo, width)
		if gotMiss != wantMiss || gotSum != wantSum {
			t.Fatalf("kernel(n=%d, lo=%d, width=%d) = (%d misses, sum %d), Go kernel (%d, %d)",
				len(vals), lo, width, gotMiss, gotSum, wantMiss, wantSum)
		}
		var matched, sum uint64
		for _, v := range vals {
			if lo <= v && v <= hi {
				matched++
				sum += v
			}
		}
		if m, s := aggInterval(vals, lo, hi); m != matched || s != sum {
			t.Fatalf("aggInterval(n=%d, [%d, %d]) = (%d, %d), want (%d, %d)", len(vals), lo, hi, m, s, matched, sum)
		}
	})
}

// FuzzAggInterval32 checks the 32-bit kernel this CPU runs against the
// portable Go kernel, and aggInterval32 against the definition
// lo <= v <= hi on 64-bit bounds, which it clamps to the 32-bit domain.
// Values come from the input bytes, four little-endian bytes each, so the
// lengths cross the kernel's groups of sixteen and its tail.
func FuzzAggInterval32(f *testing.F) {
	edges := []uint32{0, math.MaxUint32, 1<<31 - 1, 1 << 31}
	values := func(n int) []byte {
		b := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			v := edges[i%len(edges)]
			if i%3 == 2 {
				v = uint32(i) * 0x9e3779b9
			}
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	bounds := [][2]uint64{
		{0, math.MaxUint32},                  // the whole 32-bit domain
		{0, 0},                               // Equal 0
		{math.MaxUint32, math.MaxUint32},     // Equal MaxUint32
		{1<<31 - 1, 1<<31 - 1},               // Equal, below the sign bit
		{1 << 31, 1 << 31},                   // Equal, at the sign bit
		{1<<31 - 1, 1 << 31},                 // straddles the sign bit
		{1 << 31, 1<<31 - 1},                 // lo > hi
		{math.MaxUint32, 0},                  // lo > hi
		{1 << 32, math.MaxUint64},            // lo >= 2^32: nothing fits
		{math.MaxUint32 + 7, 1 << 40},        // lo >= 2^32
		{1000, 1 << 32},                      // hi >= 2^32: clamped
		{0, math.MaxUint64},                  // All
		{1 << 31, math.MaxUint64},            // Greater 1<<31-1
		{math.MaxUint32 - 5, math.MaxUint32}, // top of the domain
	}
	for _, n := range []int{0, 1, 15, 16, 17, 4095, 4096} {
		for _, bd := range bounds {
			f.Add(values(n), bd[0], bd[1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint64) {
		vals := make([]uint32, len(data)/4)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		lo32, width := uint32(lo), uint32(hi)-uint32(lo)
		gotMiss, gotSum := intervalKernel32(vals, lo32, width)
		wantMiss, wantSum := aggInterval32Go(vals, lo32, width)
		if gotMiss != wantMiss || gotSum != wantSum {
			t.Fatalf("kernel(n=%d, lo=%d, width=%d) = (%d misses, sum %d), Go kernel (%d, %d)",
				len(vals), lo32, width, gotMiss, gotSum, wantMiss, wantSum)
		}
		var matched, sum uint64
		for _, v := range vals {
			if lo <= uint64(v) && uint64(v) <= hi {
				matched++
				sum += uint64(v)
			}
		}
		if m, s := aggInterval32(vals, lo, hi); m != matched || s != sum {
			t.Fatalf("aggInterval32(n=%d, [%d, %d]) = (%d, %d), want (%d, %d)", len(vals), lo, hi, m, s, matched, sum)
		}
	})
}
