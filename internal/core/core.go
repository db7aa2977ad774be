// Package core implements the vector quotient filter (VQF) of Pandey et al.,
// SIGMOD 2021: an approximate-membership data structure that hashes items to
// two cache-line-sized mini-filter blocks with power-of-two-choices placement.
// Items are never relocated after insertion, so every operation touches at
// most two cache lines and modifies at most one, at any load factor.
//
// Four filter types are provided: Filter8 and Filter16 (single-threaded,
// ε ≈ 2⁻⁸ and ε ≈ 2⁻¹⁶), and CFilter8 and CFilter16 (thread-safe via the
// per-block lock bit of paper §6.3).
//
// All filters consume pre-hashed 64-bit keys. The bits of a key hash h are
// used as: bucket index (low 16 bits, range-reduced), fingerprint (next 8 or
// 16 bits), and primary block index (bits above those). The secondary block
// is derived with the xor trick b2 = b1 ⊕ (tag·Murmur3Mul) over a
// power-of-two block count, which makes the mapping an involution so that a
// delete can find an item's partner block from either side (§3.4).
package core

import (
	"math/bits"
	"unsafe"

	"vqf/internal/hashing"
	"vqf/internal/minifilter"
)

// Options configure a filter's insertion policy. The zero value enables the
// paper's recommended configuration: shortcut optimization at the 75%
// threshold, xor-linked block pair, SWAR block operations.
type Options struct {
	// NoShortcut disables the §6.2 shortcut optimization (always inspect
	// both candidate blocks and pick the emptier).
	NoShortcut bool

	// ShortcutThreshold is the occupancy (in slots) at or above which the
	// shortcut is abandoned and both blocks are inspected. Zero means the
	// geometry default: the paper's 75% (36/48) for 8-bit fingerprints, and
	// 64% (18/28) for 16-bit fingerprints — the smaller blocks leave only
	// seven slots of two-choice headroom above 75%, which measurably lowers
	// the achievable load factor at scale. Raising the threshold reduces the
	// maximum load factor sharply (§6.2).
	ShortcutThreshold uint

	// IndependentHash derives the secondary block from an independent hash
	// of the key instead of the xor trick. This removes the xor trick's
	// size-dependent failure probability but makes deletion unsafe (§3.4);
	// Remove must not be used on such a filter.
	IndependentHash bool

	// Generic routes all block operations through loop-based scalar
	// implementations instead of broadword/SWAR ones. This is the ablation
	// baseline corresponding to the paper's §7.7 AVX-512-vs-AVX2 experiment.
	Generic bool
}

func (o Options) threshold(g *geometry) uint {
	t := o.ShortcutThreshold
	if t == 0 {
		t = g.threshold
	}
	if t > uint(g.slots) {
		t = uint(g.slots) // a threshold beyond capacity would let the shortcut path hit a full block
	}
	return t
}

// geometry states a block geometry's constants once: code generic over the
// geometry reads them from geom8 and geom16, and takes the fingerprint width
// from the lane type (fpBits). The per-geometry hot paths inline
// split8/split16 over the same constants.
type geometry struct {
	slots, buckets uint64
	threshold      uint   // default shortcut threshold (see Options.ShortcutThreshold)
	magic          uint32 // stream magic
}

var (
	geom8  = geometry{minifilter.B8Slots, minifilter.B8Buckets, 36 /* 75% of 48 */, 0x31465156 /* "VQF1" */}
	geom16 = geometry{minifilter.B16Slots, minifilter.B16Buckets, 18 /* 64% of 28 */, 0x32465156 /* "VQF2" */}
)

// fpBits returns the fingerprint width of lane type F. Each instantiation
// sees a constant, so the generic filters' shifts fold as split8's do.
func fpBits[F minifilter.Fingerprint]() uint { return uint(unsafe.Sizeof(F(0))) * 8 }

const (
	fpBits8  = 8  // fpBits[byte]
	fpBits16 = 16 // fpBits[uint16]

	// blockShift8/blockShift16 are the hash bit offsets of the primary
	// block index (see split).
	blockShift8  = 16 + fpBits8
	blockShift16 = 16 + fpBits16
)

// blocksFor returns the power-of-two number of blocks needed for nslots slots
// of capacity with slotsPerBlock slots each.
func blocksFor(nslots uint64, slotsPerBlock uint64) uint64 {
	if nslots == 0 {
		nslots = 1
	}
	need := (nslots + slotsPerBlock - 1) / slotsPerBlock
	k := uint64(1) << bits.Len64(need-1)
	if k < 2 {
		k = 2 // two-choice placement needs at least two blocks
	}
	return k
}

// split decomposes a 64-bit key hash for a geometry of nbuckets buckets and
// fpBits-bit fingerprints: bucket index from the low 16 bits (range-reduced),
// fingerprint from the next fpBits, primary block index from the bits above.
// The tag feeding the xor trick is the full mini-filter hash (bucket,
// fingerprint): items indistinguishable inside a block must map to the same
// partner block.
func split(h, mask uint64, nbuckets uint32, fpBits uint) (b1 uint64, bucket uint, fp, tag uint64) {
	bucket = uint(uint32(h&0xffff) * nbuckets >> 16)
	fp = h >> 16 & (1<<fpBits - 1)
	b1 = h >> (16 + fpBits) & mask
	tag = uint64(bucket)<<fpBits | fp
	return
}

// splitAs is split for geometry g and lane type F, the generic filters'
// form.
func splitAs[F minifilter.Fingerprint](h, mask uint64, g *geometry) (b1 uint64, bucket uint, fp F, tag uint64) {
	b1, bucket, x, tag := split(h, mask, uint32(g.buckets), fpBits[F]())
	return b1, bucket, F(x), tag
}

// split8 decomposes a 64-bit key hash for the 8-bit-fingerprint geometry.
func split8(h, mask uint64) (b1 uint64, bucket uint, fp byte, tag uint64) {
	b1, bucket, f, tag := split(h, mask, minifilter.B8Buckets, fpBits8)
	return b1, bucket, byte(f), tag
}

// split16 decomposes a 64-bit key hash for the 16-bit-fingerprint geometry.
func split16(h, mask uint64) (b1 uint64, bucket uint, fp uint16, tag uint64) {
	b1, bucket, f, tag := split(h, mask, minifilter.B16Buckets, fpBits16)
	return b1, bucket, uint16(f), tag
}

// secondary returns the partner block index for (b1, tag) under opts.
func secondary(h, b1, tag, mask uint64, independent bool) uint64 {
	if independent {
		return hashing.Mix64(h) & mask
	}
	return hashing.AltIndex(b1, tag, mask)
}
