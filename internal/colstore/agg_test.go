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

// FuzzAggInterval32x2 checks every pair kernel this CPU can run against
// two runs of the portable 32-bit kernel: the AVX-512 kernel with its A/H
// sum loop and, where laneSumsFit allows it, its 32-bit-lane loop, and the
// fallback of single-interval runs. It also checks aggInterval32x2
// against the definition lo <= v <= hi on 64-bit bounds, clamped to the
// 32-bit domain as aggInterval32 clamps them. Values come from the input
// bytes, four little-endian bytes each.
func FuzzAggInterval32x2(f *testing.F) {
	fill := func(n int, v uint32) []byte {
		b := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	mixed := func(n int) []byte {
		edges := []uint32{0, math.MaxUint32, 1<<31 - 1, 1 << 31, 1<<24 - 1, 1 << 24}
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
	const all = math.MaxUint32
	// The 32-bit-lane loop at its limit (2^24-1 in a full block) and the
	// A/H loop just past it (2^24), with both intervals matching all.
	f.Add(fill(4096, 1<<24-1), uint64(0), uint64(all), uint64(1), uint64(1<<24-1))
	f.Add(fill(4096, 1<<24), uint64(0), uint64(all), uint64(1<<24), uint64(1<<24))
	f.Add(fill(4096, math.MaxUint32), uint64(0), uint64(all), uint64(all), uint64(all))
	f.Add(fill(4096, 1<<31), uint64(1<<31), uint64(1<<31), uint64(0), uint64(1<<31-1))
	for _, n := range []int{0, 1, 15, 16, 17, 4095, 4096} {
		for _, bd := range [][4]uint64{
			{1000, 1 << 30, 1000, 1 << 30},              // equal intervals
			{1 << 31, 1<<31 - 1, 0, all},                // A: lo > hi
			{0, all, all, 0},                            // B: lo > hi
			{1 << 32, math.MaxUint64, 1 << 24, 1 << 31}, // A: lo >= 2^32
			{1<<24 - 1, 1 << 40, math.MaxUint64, 1},     // A clamped; B empty
			{0, 0, all, all},                            // the domain's ends
			{1<<31 - 1, 1 << 31, 1<<24 - 1, 1 << 24},    // straddling edges
		} {
			f.Add(mixed(n), bd[0], bd[1], bd[2], bd[3])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, loA, hiA, loB, hiB uint64) {
		vals := make([]uint32, len(data)/4)
		var zmax uint64
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(data[4*i:])
			zmax = max(zmax, uint64(vals[i]))
		}
		lo32A, widthA := uint32(loA), uint32(hiA)-uint32(loA)
		lo32B, widthB := uint32(loB), uint32(hiB)-uint32(loB)
		missA, wantSumA := aggInterval32Go(vals, lo32A, widthA)
		missB, wantSumB := aggInterval32Go(vals, lo32B, widthB)
		want := [4]uint64{uint64(len(vals)) - missA, wantSumA, uint64(len(vals)) - missB, wantSumB}
		type pairKernel func(vals []uint32, loA, widthA, loB, widthB uint32, lanes bool) (uint64, uint64, uint64, uint64)
		check := func(name string, k pairKernel, lanes bool) {
			var got [4]uint64
			got[0], got[1], got[2], got[3] = k(vals, lo32A, widthA, lo32B, widthB, lanes)
			if got != want {
				t.Fatalf("%s(n=%d, A=[%d+%d], B=[%d+%d], lanes %v) = %v, two Go kernel runs %v",
					name, len(vals), lo32A, widthA, lo32B, widthB, lanes, got, want)
			}
		}
		check("aggInterval32x2Singles", aggInterval32x2Singles, false)
		if avx512 {
			check("pairKernel32", pairKernel32, false)
			if laneSumsFit(zmax, len(vals)) {
				check("pairKernel32", pairKernel32, true)
			}
		} else {
			t.Log("no AVX-512 on this CPU: the pair kernel is aggInterval32x2Singles")
		}

		var def [4]uint64
		for _, v := range vals {
			if loA <= uint64(v) && uint64(v) <= hiA {
				def[0]++
				def[1] += uint64(v)
			}
			if loB <= uint64(v) && uint64(v) <= hiB {
				def[2]++
				def[3] += uint64(v)
			}
		}
		var got [4]uint64
		got[0], got[1], got[2], got[3] = aggInterval32x2(vals, zmax, loA, hiA, loB, hiB)
		if got != def {
			t.Fatalf("aggInterval32x2(n=%d, zmax %d, A=[%d, %d], B=[%d, %d]) = %v, want %v",
				len(vals), zmax, loA, hiA, loB, hiB, got, def)
		}
	})
}
