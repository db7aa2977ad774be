package core

// Batch operations. The Morton filter paper (and §7.1 of the VQF paper)
// highlights bulk workloads: when many keys arrive at once, sorting them by
// primary block turns the filter's random cache-line walk into a
// mostly-sequential sweep. All batch APIs — sequential and concurrent —
// share the radix-partitioning helpers below; the concurrent filters
// additionally fan the partitions out across a worker pool
// (concurrent_batch.go).

import "math/bits"

const (
	// batchRadixBits caps the width of every radix partition (block and
	// shard), so a partition has at most batchShards parts.
	batchRadixBits = 8
	batchShards    = 1 << batchRadixBits

	// minBatchPartition is the batch size below which radix-grouping
	// overhead isn't worth it and keys are processed in caller order.
	minBatchPartition = 256
)

// maxIdxSegment bounds any single radix pass that carries int32 scatter
// indices (radixSort with idx); larger batches are processed in
// segments so the indices always fit. A variable so tests can shrink it and
// exercise the segmented path without multi-gigabyte inputs.
var maxIdxSegment = 1 << 30

// radixSort is the one counting sort behind every batch partition. It
// stably scatters hs into sorted by the radix (h >> shift) & (1<<width − 1)
// and, when idx is non-nil, records each key's position in hs beside it
// (int32: callers cut batches into maxIdxSegment-key segments). On return
// part r occupies sorted[bounds[r]:bounds[r+1]] for r < 1<<width. Two
// radices use it: the block radix (blockRadix) groups keys by primary-block
// prefix for sweep locality, and the shard radix (shift 64 − shardBits,
// width shardBits) groups them by shard. Both are at most batchRadixBits
// wide. sorted and idx must hold len(hs) elements; they are caller-owned,
// so the sequential batch path reuses them allocation-free.
func radixSort(hs, sorted []uint64, idx []int32, bounds *[batchShards + 1]int, shift, width uint) {
	parts := 1 << width
	m := uint64(parts-1) & (batchShards - 1) // the second mask proves bounds[r] in range
	clear(bounds[:parts+1])
	for _, h := range hs {
		bounds[(h>>shift)&m+1]++
	}
	// bounds[r+1] becomes part r's write cursor; after the scatter it has
	// advanced to the part's end, which is bounds[r+1] proper.
	sum := 0
	for r := 1; r <= parts; r++ {
		sum, bounds[r] = sum+bounds[r], sum
	}
	if idx == nil {
		for _, h := range hs {
			r := (h>>shift)&m + 1
			sorted[bounds[r]] = h
			bounds[r]++
		}
		return
	}
	for i, h := range hs {
		r := (h>>shift)&m + 1
		sorted[bounds[r]] = h
		idx[bounds[r]] = int32(i)
		bounds[r]++
	}
}

// blockRadix returns the radix of the primary-block partition: the top
// batchRadixBits bits of the block index, or all of them when the filter
// has fewer blocks.
func blockRadix(mask uint64, blockShift uint) (shift, width uint) {
	width = uint(bits.Len64(mask))
	if width <= batchRadixBits {
		return blockShift, width
	}
	return blockShift + width - batchRadixBits, batchRadixBits
}

// applyCount applies op to every key and returns the number of successes.
func applyCount(hs []uint64, op func(uint64) bool) int {
	n := 0
	for _, h := range hs {
		if op(h) {
			n++
		}
	}
	return n
}

// batchPrefetchDist is how many keys ahead of the sweep cursor a block's
// first metadata word is demand-loaded. Go has no prefetch intrinsic, so the
// pipeline issues a real load for the upcoming block and folds it into a
// sink the filter keeps; by the time the sweep reaches that key its cache
// line is (usually) resident. Eight keys ≈ one partition stride of
// out-of-order window on current cores.
const batchPrefetchDist = 8

// batchScratch holds the reusable buffers of the sequential batch pipeline,
// owned by a filter so steady-state batch calls allocate nothing. The
// sequential filters are single-goroutine by contract, which is what makes
// a per-filter scratch sound. sink accumulates the prefetch loads so the
// compiler cannot eliminate them.
type batchScratch struct {
	sorted []uint64
	idx    []int32
	sink   uint64
}

// partition radix-groups hs by primary block into the reusable buffers
// (see radixSort): keys sharing a block-index prefix become adjacent, so the
// sweep walks the block array in address order and touches each 64-byte
// block once per batch. With withIdx it also returns each key's position in
// hs, so order-sensitive results (ContainsBatch) scatter back to input
// order.
func (s *batchScratch) partition(hs []uint64, mask uint64, blockShift uint, withIdx bool) (sorted []uint64, idx []int32) {
	if cap(s.sorted) < len(hs) {
		s.sorted = make([]uint64, len(hs))
	}
	sorted = s.sorted[:len(hs)]
	if withIdx {
		if cap(s.idx) < len(hs) {
			s.idx = make([]int32, len(hs))
		}
		idx = s.idx[:len(hs)]
	}
	var bounds [batchShards + 1]int
	shift, width := blockRadix(mask, blockShift)
	radixSort(hs, sorted, idx, &bounds, shift, width)
	return sorted, idx
}

// InsertBatch inserts the keys of hs, returning the number successfully
// inserted. Every key is attempted, even after an insert fails: when the
// filter approaches capacity the successes can come from anywhere in hs, not
// a prefix of it (insertion order is a locality-driven radix reorder, not
// caller order). Duplicates are stored like repeated Insert calls.
func (f *Filter8) InsertBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Insert)
	}
	sorted, _ := f.scratch.partition(hs, f.mask, blockShift8, false)
	n := 0
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift8)&f.mask].MetaLo
		}
		if f.Insert(h) {
			n++
		}
	}
	f.scratch.sink = sink
	return n
}

// ContainsBatch reports membership for every key of hs in input order:
// result[i] corresponds to hs[i], even though the probes themselves run in
// radix-reordered block-address order. The result reuses dst if it has
// sufficient capacity (dst may be nil).
func (f *Filter8) ContainsBatch(hs []uint64, dst []bool) []bool {
	f.st.Batch(len(hs))
	out := resizeBools(dst, len(hs))
	if len(hs) < minBatchPartition {
		for i, h := range hs {
			out[i] = f.Contains(h)
		}
		return out
	}
	for off := 0; off < len(hs); off += maxIdxSegment {
		end := min(off+maxIdxSegment, len(hs))
		f.containsSegment(hs[off:end], out[off:end])
	}
	return out
}

// containsSegment probes one index-safe segment in radix order, scattering
// results back to segment order.
func (f *Filter8) containsSegment(hs []uint64, out []bool) {
	sorted, idx := f.scratch.partition(hs, f.mask, blockShift8, true)
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift8)&f.mask].MetaLo
		}
		out[idx[i]] = f.Contains(h)
	}
	f.scratch.sink = sink
}

// RemoveBatch removes one previously inserted instance of each key of hs,
// returning the number found and removed. Like InsertBatch, keys are
// processed in block-address order, not caller order.
func (f *Filter8) RemoveBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Remove)
	}
	sorted, _ := f.scratch.partition(hs, f.mask, blockShift8, false)
	n := 0
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift8)&f.mask].MetaLo
		}
		if f.Remove(h) {
			n++
		}
	}
	f.scratch.sink = sink
	return n
}

// InsertBatch inserts the keys of hs; see Filter8.InsertBatch.
func (f *Filter16) InsertBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Insert)
	}
	sorted, _ := f.scratch.partition(hs, f.mask, blockShift16, false)
	n := 0
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift16)&f.mask].Meta
		}
		if f.Insert(h) {
			n++
		}
	}
	f.scratch.sink = sink
	return n
}

// ContainsBatch reports membership for every key of hs in input order; see
// Filter8.ContainsBatch.
func (f *Filter16) ContainsBatch(hs []uint64, dst []bool) []bool {
	f.st.Batch(len(hs))
	out := resizeBools(dst, len(hs))
	if len(hs) < minBatchPartition {
		for i, h := range hs {
			out[i] = f.Contains(h)
		}
		return out
	}
	for off := 0; off < len(hs); off += maxIdxSegment {
		end := min(off+maxIdxSegment, len(hs))
		f.containsSegment(hs[off:end], out[off:end])
	}
	return out
}

// containsSegment probes one index-safe segment in radix order, scattering
// results back to segment order.
func (f *Filter16) containsSegment(hs []uint64, out []bool) {
	sorted, idx := f.scratch.partition(hs, f.mask, blockShift16, true)
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift16)&f.mask].Meta
		}
		out[idx[i]] = f.Contains(h)
	}
	f.scratch.sink = sink
}

// RemoveBatch removes one instance of each key of hs; see
// Filter8.RemoveBatch.
func (f *Filter16) RemoveBatch(hs []uint64) int {
	f.st.Batch(len(hs))
	if len(hs) < minBatchPartition {
		return applyCount(hs, f.Remove)
	}
	sorted, _ := f.scratch.partition(hs, f.mask, blockShift16, false)
	n := 0
	sink := f.scratch.sink
	for i, h := range sorted {
		if i+batchPrefetchDist < len(sorted) {
			sink ^= f.blocks[(sorted[i+batchPrefetchDist]>>blockShift16)&f.mask].Meta
		}
		if f.Remove(h) {
			n++
		}
	}
	f.scratch.sink = sink
	return n
}
