package replay

// EmptyDigest is the sum of a Digest that folded nothing. A cell whose
// digest equals it fingerprinted none of its run — the signature of a
// digest captured before the run wrote anything into it.
const EmptyDigest = 0xcbf29ce484222325

// Digest is FNV-1a 64 built up incrementally over mixed-type records:
// the one fold behind every cell, schedule, pair and exploration
// fingerprint in soak and diffcheck.
type Digest struct{ h uint64 }

// NewDigest starts an empty fold.
func NewDigest() *Digest { return &Digest{h: EmptyDigest} }

// U64 folds v's eight little-endian bytes.
func (d *Digest) U64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= uint64(byte(v >> (8 * i)))
		d.h *= 0x100000001b3
	}
}

// Str folds s's bytes followed by its length, so adjacent strings
// cannot trade bytes across their boundary.
func (d *Digest) Str(s string) {
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 0x100000001b3
	}
	d.U64(uint64(len(s)))
}

// Sum returns the fold so far.
func (d *Digest) Sum() uint64 { return d.h }
