package core

import (
	"math/bits"

	"vqf/internal/hashing"
	"vqf/internal/minifilter"
)

// Fingerprint iteration and canonical hash reconstruction. A VQF block
// stores only (bucket, fingerprint) pairs; the key hash that produced them
// is gone. But every bit of the hash the filter ever consults is a function
// of (block index, bucket, fingerprint), so a canonical preimage hash can be
// reconstructed: any h̃ with the same low-16 bucket selector, the same
// fingerprint field, and the iterated block as its primary index is
// indistinguishable from the original hash to this filter. That is what
// makes compaction's rebuild-by-reinsertion exact rather than approximate.
//
// Cross-size soundness: a canonical hash is also indistinguishable from the
// original to any SMALLER xor-linked filter of the same fingerprint width.
// The secondary index b2 = b1 ^ (tag·M) means truncating both sides by a
// smaller power-of-two mask' commutes with the xor: the iterated block b
// (whether it was the item's primary or secondary home) satisfies
// b&mask' ∈ {b1&mask', (b1^(tag·M))&mask'} — exactly the candidate pair the
// original hash has in the smaller filter. Under Options.IndependentHash the
// secondary derivation is not linear in the block index, so rebuilding into
// a different geometry is unsound; elastic levels never use it, and the
// iterate-rebuild oracle property covers only xor-linked filters.

// canonLow16 returns the smallest 16-bit value whose Lemire range reduction
// (x·nbuckets >> 16) yields bucket. ceil(bucket·2¹⁶ / nbuckets) is exact:
// floor((bucket·2¹⁶+nb−1)/nb · nb / 2¹⁶) = bucket for every bucket < nb.
func canonLow16(bucket uint, nbuckets uint) uint64 {
	return (uint64(bucket)<<16 + uint64(nbuckets) - 1) / uint64(nbuckets)
}

// canonical reconstructs a canonical preimage hash for an item iterated
// from block b of a geometry with nbuckets buckets and fpBits-bit
// fingerprints: split maps it back to exactly (b&mask, bucket, fp) on any
// filter of that geometry whose block mask covers b.
func canonical(b uint64, bucket uint, fp, nbuckets uint64, fpBits uint) uint64 {
	return canonLow16(bucket, uint(nbuckets)) | fp<<16 | b<<(16+fpBits)
}

// CanonicalHash8 reconstructs a canonical preimage hash for an item iterated
// from block b of an 8-bit-fingerprint filter: split8 maps it back to
// exactly (b&mask, bucket, fp) on any filter whose block mask covers b.
func CanonicalHash8(b uint64, bucket uint, fp byte) uint64 {
	return canonical(b, bucket, uint64(fp), minifilter.B8Buckets, fpBits8)
}

// CanonicalHash16 reconstructs a canonical preimage hash for an item
// iterated from block b of a 16-bit-fingerprint filter; see CanonicalHash8.
func CanonicalHash16(b uint64, bucket uint, fp uint16) uint64 {
	return canonical(b, bucket, uint64(fp), minifilter.B16Buckets, fpBits16)
}

// BlocksFor exposes the geometry's block-count rounding (power of two,
// minimum 2) so cascade compaction can size a merged level without
// duplicating the rule.
func BlocksFor(nslots, slotsPerBlock uint64) uint64 {
	return blocksFor(nslots, slotsPerBlock)
}

// FoldHash8 returns the canonical representative hash of h's candidate
// block PAIR under the given block mask (mask = blocks−1, power of two
// minus one): the canonical hash anchored at the smaller of the two
// xor-linked candidate blocks. Every hash indistinguishable from h to an
// 8-bit-fingerprint filter of that size — including any canonical hash
// iterated from a LARGER xor-linked filter that stored h — folds to the
// same representative: the candidate pair is closed under mask truncation
// (see the package comment), and min() picks the same element regardless of
// which member the input hash was anchored at. The frozen tier keys its
// immutable filters by this value, collapsing the two-block probe of the
// VQF geometry into one exact-match key.
func FoldHash8(h, mask uint64) uint64 {
	b1, bucket, fp, tag := split8(h, mask)
	if b2 := hashing.AltIndex(b1, tag, mask); b2 < b1 {
		b1 = b2
	}
	return CanonicalHash8(b1, bucket, fp)
}

// CandidatePair8 returns h's two xor-linked candidate block indices in an
// 8-bit-fingerprint geometry under the given block mask (equal when the tag
// maps the primary block onto itself). FoldHash8 anchors its representative
// at the smaller of the two; callers that must enumerate every block a key
// can occupy — reconcile's stride walk over a frozen fuse level — need both.
func CandidatePair8(h, mask uint64) (uint64, uint64) {
	b1, _, _, tag := split8(h, mask)
	return b1, hashing.AltIndex(b1, tag, mask)
}

// CandidatePair16 returns h's two candidate block indices in a
// 16-bit-fingerprint geometry; see CandidatePair8.
func CandidatePair16(h, mask uint64) (uint64, uint64) {
	b1, _, _, tag := split16(h, mask)
	return b1, hashing.AltIndex(b1, tag, mask)
}

// FoldHash16 returns the canonical pair-representative hash of h for the
// 16-bit-fingerprint geometry; see FoldHash8.
func FoldHash16(h, mask uint64) uint64 {
	b1, bucket, fp, tag := split16(h, mask)
	if b2 := hashing.AltIndex(b1, tag, mask); b2 < b1 {
		b1 = b2
	}
	return CanonicalHash16(b1, bucket, fp)
}

// IterateHashes yields one canonical hash per stored fingerprint instance,
// in block order. Reinserting every yielded hash into a fresh filter
// reproduces this filter's contents exactly (same Contains/CountOf
// behaviour, modulo block-choice placement). It returns false if yield
// stopped the walk early.
func (f *plainFilter[B, F, P]) IterateHashes(yield func(h uint64) bool) bool {
	for i := range f.blocks {
		b := uint64(i)
		if !P(&f.blocks[i]).Iterate(func(bucket uint, fp F) bool {
			return yield(canonical(b, bucket, uint64(fp), f.geo.buckets, fpBits[F]()))
		}) {
			return false
		}
	}
	return true
}

// IterateHashes yields one canonical hash per stored fingerprint instance,
// in block order, safe alongside concurrent writers. Each block is walked
// from one internally consistent snapshot (see
// minifilter.Block8.SnapshotIterate); the walk as a whole is a point-in-time
// view only per block, not across blocks — callers needing a cross-block
// consistent view must quiesce writers (compaction freezes inserts to the
// levels it walks and reconciles racing removes through a log).
func (f *CFilter[B, F, P]) IterateHashes(yield func(h uint64) bool) bool {
	for i := range f.blocks {
		b := uint64(i)
		if !f.block(b).SnapshotIterate(f.seq(b), func(bucket uint, fp F) bool {
			return yield(canonical(b, bucket, uint64(fp), f.geo.buckets, fpBits[F]()))
		}) {
			return false
		}
	}
	return true
}

// CandidateBlocks returns the two block indices the pre-hashed key h may
// occupy (equal when the xor trick maps a tag back onto its primary block).
func (f *plainFilter[B, F, P]) CandidateBlocks(h uint64) (uint64, uint64) {
	b1, _, _, tag := splitAs[F](h, f.mask, &f.geo)
	return b1, secondary(h, b1, tag, f.mask, f.opts.IndependentHash)
}

// CandidateBlocks returns the two candidate block indices for h.
func (f *CFilter[B, F, P]) CandidateBlocks(h uint64) (uint64, uint64) {
	b1, _, _, tag := splitAs[F](h, f.mask, &f.geo)
	return b1, secondary(h, b1, tag, f.mask, false)
}

// CountAtBlock returns the number of fingerprint instances matching h's
// (bucket, fingerprint) stored in block b — which need not be one of h's own
// candidate blocks; compaction counts a hash's instances across all source
// blocks that fold onto a destination pair.
func (f *plainFilter[B, F, P]) CountAtBlock(b, h uint64) uint64 {
	_, bucket, fp, _ := splitAs[F](h, f.mask, &f.geo)
	return uint64(bits.OnesCount64(P(&f.blocks[b]).Probe(bucket, minifilter.Broadcast(fp))))
}

// CountAtBlock returns the number of matching instances in block b from a
// consistent lock-free block snapshot; see plainFilter.CountAtBlock.
func (f *CFilter[B, F, P]) CountAtBlock(b, h uint64) uint64 {
	_, bucket, fp, _ := splitAs[F](h, f.mask, &f.geo)
	mask, _, _ := f.block(b).ProbeOptimistic(f.seq(b), bucket, minifilter.Broadcast(fp))
	return uint64(bits.OnesCount64(mask))
}
