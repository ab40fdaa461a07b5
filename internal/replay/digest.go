package replay

import "math/bits"

// EmptyDigest is the sum of a Digest that folded nothing. A cell whose
// digest equals it fingerprinted none of its run — the signature of a
// digest captured before the run wrote anything into it.
const EmptyDigest = 0xcbf29ce484222325

// fnvPrime is FNV-1a 64's multiplier.
const fnvPrime = 0x100000001b3

// primePow[k] is fnvPrime^k mod 2^64. FNV-1a folds a zero byte as a bare
// multiply (h ^= 0 leaves h unchanged), so k zero bytes in a row are one
// multiply by primePow[k]. The powers are computed exactly as untyped
// constants and reduced once.
var primePow = [9]uint64{
	1,
	fnvPrime,
	fnvPrime * fnvPrime % (1 << 64),
	fnvPrime * fnvPrime * fnvPrime % (1 << 64),
	fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64),
	fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64),
	fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64),
	fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64),
	fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64),
}

// Digest is FNV-1a 64 built up incrementally over mixed-type records:
// the one fold behind every cell, schedule, pair and exploration
// fingerprint in soak and diffcheck.
type Digest struct{ h uint64 }

// NewDigest starts an empty fold.
func NewDigest() *Digest { return &Digest{h: EmptyDigest} }

// U64 folds v's eight little-endian bytes.
func (d *Digest) U64(v uint64) { d.h = foldU64(d.h, v) }

// Flag folds b as the U64 1 or 0.
func (d *Digest) Flag(b bool) {
	if b {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// foldU64 folds v's eight little-endian bytes into h. It folds the low
// bytes up to v's highest non-zero one byte by byte, then the run of
// zero high bytes as one multiply: the same sum as eight byte folds, and
// most folded values (counts, pids, kinds, small times) are a byte or two.
func foldU64(h, v uint64) uint64 {
	n := (bits.Len64(v) + 7) / 8
	for i := 0; i < n; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h * primePow[8-n]
}

// Str folds s's bytes followed by its length, so adjacent strings
// cannot trade bytes across their boundary.
func (d *Digest) Str(s string) {
	h := d.h
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	d.h = foldU64(h, uint64(len(s)))
}

// Sum returns the fold so far.
func (d *Digest) Sum() uint64 { return d.h }
