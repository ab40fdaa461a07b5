package replay

import (
	"math/rand"
	"testing"
)

// byteFoldU64 is FNV-1a 64 over v's eight little-endian bytes, one byte
// at a time: the reference U64 must match for every input.
func byteFoldU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= 0x100000001b3
	}
	return h
}

// byteFoldStr is the reference Str: s's bytes, then its length as a U64.
func byteFoldStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return byteFoldU64(h, uint64(len(s)))
}

// TestU64MatchesByteFold pins the zero-run fold to the byte-at-a-time
// definition: every digest in the tree (the golden cells, artifacts and
// the checked-in fixture) was recorded under it.
func TestU64MatchesByteFold(t *testing.T) {
	vals := []uint64{0, 1, 255, 256, 1<<16 - 1, 1 << 16, 1 << 56, 1<<56 - 1, 1 << 63, ^uint64(0)}
	for _, e := range []int64{-1, -2, -4, -9, -11, -22, -28, -35, -1 << 31} {
		vals = append(vals, uint64(e)) // negative errnos fold as int64
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		// Every byte length from 0 to 8 appears, not just full words.
		vals = append(vals, r.Uint64()>>(8*uint(r.Intn(9))))
	}
	for _, start := range []uint64{EmptyDigest, 0, 0x9e3779b97f4a7c15} {
		for _, v := range vals {
			d := Digest{h: start}
			d.U64(v)
			if want := byteFoldU64(start, v); d.Sum() != want {
				t.Fatalf("U64(%#x) from %#x = %#x, byte fold %#x", v, start, d.Sum(), want)
			}
		}
	}
	for _, s := range []string{"", "a", "mach-cell", string(make([]byte, 300))} {
		d := NewDigest()
		d.Str(s)
		if want := byteFoldStr(EmptyDigest, s); d.Sum() != want {
			t.Fatalf("Str(%q) = %#x, byte fold %#x", s, d.Sum(), want)
		}
	}
}

func BenchmarkDigestU64(b *testing.B) {
	d := NewDigest()
	for i := 0; i < b.N; i++ {
		d.U64(uint64(i & 0xfff))
	}
}
