package core

// Sharded concurrent filters: a power-of-two array of independent CFilter8/16
// instances, selected by the *top* hash bits. Sharding multiplies every
// contended resource — block locks, seqlock version stripes, striped stats
// counters, the count accumulator — by the shard count, because each shard is
// a self-contained filter with private instances of all of them (each
// separately heap-allocated, so shards never share cache lines). The filter
// semantics are unchanged: a key's two candidate blocks both live in its
// shard, so lookups still touch at most two cache lines plus the shard
// pointer.
//
// Shard selection uses the highest shardBits of the hash, disjoint from the
// bits the in-shard geometry consumes (bucket and fingerprint from the low
// bits, primary block from bit 24/32 up — see split8/split16) for any filter
// below 2^(40−shardBits) blocks per shard, which is beyond the serializer's
// 2^40-block cap anyway. Keys therefore spread near-uniformly and
// independently of their in-shard placement.
//
// Batch operations radix-partition the keys by shard and fan the partitions
// out over a worker pool in which each worker *owns* the shards it claims
// (atomic-cursor claiming): two workers never operate on the same shard, so
// batch workers contend on nothing at all — not even the secondary-block
// collisions the single-filter parallel batches retain. Within its claimed
// partition a worker re-partitions by primary block for the sequential
// sweep locality of the non-sharded batch path.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// maxShardBits bounds the shard count to 256: beyond the core counts of any
// machine this code plausibly meets, and it keeps the shard radix one byte.
const maxShardBits = 8

// ShardBitsFor returns ceil(log2(n)) clamped to [0, maxShardBits]; n <= 0
// selects a single shard. The elastic sharded cascade uses it too, so the
// 256-shard cap lives here only.
func ShardBitsFor(n int) uint {
	bits := uint(0)
	for 1<<bits < n && bits < maxShardBits {
		bits++
	}
	return bits
}

// shardOf returns the shard index of hash h: its top shardBits bits. For
// shardBits == 0 the shift count is 64, which in Go yields 0 — every key
// lands in the single shard.
func shardOf(h uint64, shardBits uint) uint64 { return h >> (64 - shardBits) }

// shardPartition reorders hs so keys of the same shard are adjacent; shard s
// occupies sorted[bounds[s]:bounds[s+1]].
func shardPartition(hs []uint64, shardBits uint) (sorted []uint64, bounds []int) {
	n := 1 << shardBits
	counts := make([]int, n)
	for _, h := range hs {
		counts[shardOf(h, shardBits)]++
	}
	bounds = make([]int, n+1)
	sum := 0
	for i, c := range counts {
		bounds[i] = sum
		sum += c
	}
	bounds[n] = sum
	sorted = make([]uint64, len(hs))
	next := counts // reuse: next[i] becomes the write cursor for shard i
	copy(next, bounds[:n])
	for _, h := range hs {
		s := shardOf(h, shardBits)
		sorted[next[s]] = h
		next[s]++
	}
	return sorted, bounds
}

// shardPartitionIdx is shardPartition carrying each key's original position,
// for order-sensitive scatter (ContainsBatch). Indices are int32; callers
// segment larger batches (maxIdxSegment) first.
func shardPartitionIdx(hs []uint64, shardBits uint) (sorted []uint64, idx []int32, bounds []int) {
	n := 1 << shardBits
	counts := make([]int, n)
	for _, h := range hs {
		counts[shardOf(h, shardBits)]++
	}
	bounds = make([]int, n+1)
	sum := 0
	for i, c := range counts {
		bounds[i] = sum
		sum += c
	}
	bounds[n] = sum
	sorted = make([]uint64, len(hs))
	idx = make([]int32, len(hs))
	next := counts
	copy(next, bounds[:n])
	for i, h := range hs {
		s := shardOf(h, shardBits)
		sorted[next[s]] = h
		idx[next[s]] = int32(i)
		next[s]++
	}
	return sorted, idx, bounds
}

// shardBatchWorkers returns the worker-pool size for a sharded batch of n
// keys over nshards shards: bounded by GOMAXPROCS, the shard count (workers
// own whole shards), and the ~4k-keys-per-worker floor shared with the
// non-sharded parallel batches.
func shardBatchWorkers(n, nshards int) int {
	w := runtime.GOMAXPROCS(0)
	if w > nshards {
		w = nshards
	}
	if byLoad := n / minParallelBatch; w > byLoad {
		w = byLoad
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sharded8 is a sharded thread-safe filter with 8-bit fingerprints: an array
// of CFilter8 shards selected by the top hash bits. All single-key
// operations delegate to one shard; batch operations partition by shard and
// run shard-disjoint workers.
type Sharded8 struct {
	shards    []*CFilter8
	shardBits uint
	ring      *telemetry.Ring
}

// NewSharded8 creates a sharded filter with at least nslots total slots
// spread over nshards shards (rounded up to a power of two, clamped to
// [1, 256]). Each shard is an independent CFilter8 sized for its share.
func NewSharded8(nslots uint64, nshards int, opts Options) *Sharded8 {
	bits := ShardBitsFor(nshards)
	n := uint64(1) << bits
	per := (nslots + n - 1) / n
	f := &Sharded8{shards: make([]*CFilter8, n), shardBits: bits}
	for i := range f.shards {
		f.shards[i] = NewCFilter8(per, opts)
	}
	return f
}

// NumShards returns the shard count (a power of two).
func (f *Sharded8) NumShards() int { return len(f.shards) }

// ShardCounts returns each shard's current item count, for balance
// diagnostics.
func (f *Sharded8) ShardCounts() []uint64 {
	out := make([]uint64, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Count()
	}
	return out
}

// ShardSnapshots returns one full structural snapshot per shard, in shard
// order. fprFullLoad is the geometry's analytic full-load FPR (a constant
// shared by every shard). Cost is O(total blocks), same as one aggregate
// snapshot.
func (f *Sharded8) ShardSnapshots(fprFullLoad float64) []stats.Snapshot {
	out := make([]stats.Snapshot, len(f.shards))
	for i, s := range f.shards {
		out[i] = stats.BuildSnapshot(s.Count(), s.Capacity(), s.SizeBytes(), fprFullLoad,
			s.BlockOccupancies(), minifilter.B8Slots, s.Stats())
	}
	return out
}

func (f *Sharded8) shard(h uint64) *CFilter8 { return f.shards[shardOf(h, f.shardBits)] }

// Insert adds the pre-hashed key h to its shard. Safe for concurrent use.
func (f *Sharded8) Insert(h uint64) bool { return f.shard(h).Insert(h) }

// Contains reports whether h may be in the filter; lock-free on the common
// path. Safe for concurrent use.
func (f *Sharded8) Contains(h uint64) bool { return f.shard(h).Contains(h) }

// Remove deletes one previously inserted instance of h. Safe for concurrent
// use.
func (f *Sharded8) Remove(h uint64) bool { return f.shard(h).Remove(h) }

// Count returns the number of fingerprints stored across all shards.
func (f *Sharded8) Count() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.Count()
	}
	return n
}

// Capacity returns the total slots across all shards.
func (f *Sharded8) Capacity() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.Capacity()
	}
	return n
}

// LoadFactor returns Count divided by Capacity.
func (f *Sharded8) LoadFactor() float64 { return float64(f.Count()) / float64(f.Capacity()) }

// SizeBytes returns the memory footprint summed over shards.
func (f *Sharded8) SizeBytes() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.SizeBytes()
	}
	return n
}

// Stats returns operation counters summed across shards. Each shard's
// counters are private (no cross-shard contention); the sum inherits the
// per-counter exactness and monotonicity of the striped carriers.
func (f *Sharded8) Stats() stats.OpCounts {
	var total stats.OpCounts
	for _, s := range f.shards {
		total = total.Add(s.Stats())
	}
	return total
}

// SlotsPerBlock returns the fingerprint slots per mini-filter block.
func (f *Sharded8) SlotsPerBlock() uint { return minifilter.B8Slots }

// BlockOccupancies returns the concatenated per-block occupancies of every
// shard, in shard order — all shards share one geometry, so the combined
// vector feeds the same histogram a single filter's would.
func (f *Sharded8) BlockOccupancies() []uint {
	var out []uint
	for _, s := range f.shards {
		out = append(out, s.BlockOccupancies()...)
	}
	return out
}

// InsertBatch inserts the keys of hs in parallel with shard-disjoint
// workers, returning the number successfully inserted. Safe for concurrent
// use alongside any other operations.
func (f *Sharded8) InsertBatch(hs []uint64) int {
	return shardedCount8(f, hs, (*CFilter8).InsertBatch, (*CFilter8).Insert)
}

// RemoveBatch removes one instance of each key of hs in parallel with
// shard-disjoint workers, returning the number found and removed.
func (f *Sharded8) RemoveBatch(hs []uint64) int {
	return shardedCount8(f, hs, (*CFilter8).RemoveBatch, (*CFilter8).Remove)
}

// shardedCount8 partitions hs by shard and applies the batch (whole
// partition) or single-key form of an operation with shard-disjoint
// workers; see the package comment for the contention argument.
func shardedCount8(f *Sharded8, hs []uint64, batch func(*CFilter8, []uint64) int, op func(*CFilter8, uint64) bool) int {
	if len(f.shards) == 1 {
		return batch(f.shards[0], hs)
	}
	sorted, bounds := shardPartition(hs, f.shardBits)
	w := shardBatchWorkers(len(hs), len(f.shards))
	if w == 1 {
		// One worker: keep the shard partition for locality but let each
		// shard's own batch path handle its segment (it may still fan out
		// across blocks if GOMAXPROCS allows).
		total := 0
		for s := range f.shards {
			if seg := sorted[bounds[s]:bounds[s+1]]; len(seg) > 0 {
				total += batch(f.shards[s], seg)
			}
		}
		return total
	}
	var cursor, total, active atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, fed := 0, false
			for {
				s := int(cursor.Add(1)) - 1
				if s >= len(f.shards) {
					break
				}
				seg := sorted[bounds[s]:bounds[s+1]]
				if len(seg) == 0 {
					continue
				}
				fed = true
				shard := f.shards[s]
				shard.st.Batch(len(seg))
				if len(seg) >= minBatchPartition {
					segSorted, _ := radixPartition(seg, shard.mask, blockShift8)
					seg = segSorted
				}
				for _, h := range seg {
					if op(shard, h) {
						n++
					}
				}
			}
			if fed {
				active.Add(1)
			}
			total.Add(int64(n))
		}()
	}
	wg.Wait()
	stallEvent(f.ring, int(active.Load()), w, len(hs))
	return int(total.Load())
}

// ContainsBatch reports membership for every key of hs in input order;
// lookups run lock-free with shard-disjoint workers. The result reuses dst
// if it has sufficient capacity (dst may be nil).
func (f *Sharded8) ContainsBatch(hs []uint64, dst []bool) []bool {
	if len(f.shards) == 1 {
		return f.shards[0].ContainsBatch(hs, dst)
	}
	out := resizeBools(dst, len(hs))
	shardedContains(len(f.shards), f.shardBits, hs, out, func(s int, seg []uint64, segOut []bool, idx []int32, lo, hi int) {
		shard := f.shards[s]
		shard.st.Batch(hi - lo)
		for j := lo; j < hi; j++ {
			segOut[idx[j]] = shard.Contains(seg[j])
		}
	})
	return out
}

// shardedContains partitions hs by shard (segmented so int32 scatter indices
// always fit) and invokes scan for each shard's slice, either inline or from
// shard-disjoint workers. scan receives the partition-sorted keys, the
// original-position scatter array, and the shard's [lo, hi) range in them.
func shardedContains(nshards int, shardBits uint, hs []uint64, out []bool, scan func(s int, sorted []uint64, segOut []bool, idx []int32, lo, hi int)) {
	for off := 0; off < len(hs); off += maxIdxSegment {
		end := min(off+maxIdxSegment, len(hs))
		seg, segOut := hs[off:end], out[off:end]
		sorted, idx, bounds := shardPartitionIdx(seg, shardBits)
		w := shardBatchWorkers(len(seg), nshards)
		if w == 1 {
			for s := 0; s < nshards; s++ {
				if bounds[s] < bounds[s+1] {
					scan(s, sorted, segOut, idx, bounds[s], bounds[s+1])
				}
			}
			continue
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(cursor.Add(1)) - 1
					if s >= nshards {
						break
					}
					if bounds[s] < bounds[s+1] {
						scan(s, sorted, segOut, idx, bounds[s], bounds[s+1])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// Sharded16 is the sharded thread-safe filter with 16-bit fingerprints; see
// Sharded8.
type Sharded16 struct {
	shards    []*CFilter16
	shardBits uint
	ring      *telemetry.Ring
}

// NewSharded16 creates a sharded 16-bit-fingerprint filter; see NewSharded8.
func NewSharded16(nslots uint64, nshards int, opts Options) *Sharded16 {
	bits := ShardBitsFor(nshards)
	n := uint64(1) << bits
	per := (nslots + n - 1) / n
	f := &Sharded16{shards: make([]*CFilter16, n), shardBits: bits}
	for i := range f.shards {
		f.shards[i] = NewCFilter16(per, opts)
	}
	return f
}

// NumShards returns the shard count (a power of two).
func (f *Sharded16) NumShards() int { return len(f.shards) }

// ShardCounts returns each shard's current item count.
func (f *Sharded16) ShardCounts() []uint64 {
	out := make([]uint64, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Count()
	}
	return out
}

// ShardSnapshots returns one full structural snapshot per shard; see
// Sharded8.ShardSnapshots.
func (f *Sharded16) ShardSnapshots(fprFullLoad float64) []stats.Snapshot {
	out := make([]stats.Snapshot, len(f.shards))
	for i, s := range f.shards {
		out[i] = stats.BuildSnapshot(s.Count(), s.Capacity(), s.SizeBytes(), fprFullLoad,
			s.BlockOccupancies(), minifilter.B16Slots, s.Stats())
	}
	return out
}

func (f *Sharded16) shard(h uint64) *CFilter16 { return f.shards[shardOf(h, f.shardBits)] }

// Insert adds the pre-hashed key h to its shard. Safe for concurrent use.
func (f *Sharded16) Insert(h uint64) bool { return f.shard(h).Insert(h) }

// Contains reports whether h may be in the filter; lock-free on the common
// path. Safe for concurrent use.
func (f *Sharded16) Contains(h uint64) bool { return f.shard(h).Contains(h) }

// Remove deletes one previously inserted instance of h. Safe for concurrent
// use.
func (f *Sharded16) Remove(h uint64) bool { return f.shard(h).Remove(h) }

// Count returns the number of fingerprints stored across all shards.
func (f *Sharded16) Count() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.Count()
	}
	return n
}

// Capacity returns the total slots across all shards.
func (f *Sharded16) Capacity() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.Capacity()
	}
	return n
}

// LoadFactor returns Count divided by Capacity.
func (f *Sharded16) LoadFactor() float64 { return float64(f.Count()) / float64(f.Capacity()) }

// SizeBytes returns the memory footprint summed over shards.
func (f *Sharded16) SizeBytes() uint64 {
	var n uint64
	for _, s := range f.shards {
		n += s.SizeBytes()
	}
	return n
}

// Stats returns operation counters summed across shards; see Sharded8.Stats.
func (f *Sharded16) Stats() stats.OpCounts {
	var total stats.OpCounts
	for _, s := range f.shards {
		total = total.Add(s.Stats())
	}
	return total
}

// SlotsPerBlock returns the fingerprint slots per mini-filter block.
func (f *Sharded16) SlotsPerBlock() uint { return minifilter.B16Slots }

// BlockOccupancies returns the concatenated per-block occupancies of every
// shard, in shard order.
func (f *Sharded16) BlockOccupancies() []uint {
	var out []uint
	for _, s := range f.shards {
		out = append(out, s.BlockOccupancies()...)
	}
	return out
}

// InsertBatch inserts the keys of hs in parallel with shard-disjoint
// workers; see Sharded8.InsertBatch.
func (f *Sharded16) InsertBatch(hs []uint64) int {
	return shardedCount16(f, hs, (*CFilter16).InsertBatch, (*CFilter16).Insert)
}

// RemoveBatch removes one instance of each key of hs in parallel with
// shard-disjoint workers; see Sharded8.RemoveBatch.
func (f *Sharded16) RemoveBatch(hs []uint64) int {
	return shardedCount16(f, hs, (*CFilter16).RemoveBatch, (*CFilter16).Remove)
}

func shardedCount16(f *Sharded16, hs []uint64, batch func(*CFilter16, []uint64) int, op func(*CFilter16, uint64) bool) int {
	if len(f.shards) == 1 {
		return batch(f.shards[0], hs)
	}
	sorted, bounds := shardPartition(hs, f.shardBits)
	w := shardBatchWorkers(len(hs), len(f.shards))
	if w == 1 {
		total := 0
		for s := range f.shards {
			if seg := sorted[bounds[s]:bounds[s+1]]; len(seg) > 0 {
				total += batch(f.shards[s], seg)
			}
		}
		return total
	}
	var cursor, total, active atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, fed := 0, false
			for {
				s := int(cursor.Add(1)) - 1
				if s >= len(f.shards) {
					break
				}
				seg := sorted[bounds[s]:bounds[s+1]]
				if len(seg) == 0 {
					continue
				}
				fed = true
				shard := f.shards[s]
				shard.st.Batch(len(seg))
				if len(seg) >= minBatchPartition {
					segSorted, _ := radixPartition(seg, shard.mask, blockShift16)
					seg = segSorted
				}
				for _, h := range seg {
					if op(shard, h) {
						n++
					}
				}
			}
			if fed {
				active.Add(1)
			}
			total.Add(int64(n))
		}()
	}
	wg.Wait()
	stallEvent(f.ring, int(active.Load()), w, len(hs))
	return int(total.Load())
}

// ContainsBatch reports membership for every key of hs in input order; see
// Sharded8.ContainsBatch.
func (f *Sharded16) ContainsBatch(hs []uint64, dst []bool) []bool {
	if len(f.shards) == 1 {
		return f.shards[0].ContainsBatch(hs, dst)
	}
	out := resizeBools(dst, len(hs))
	shardedContains(len(f.shards), f.shardBits, hs, out, func(s int, seg []uint64, segOut []bool, idx []int32, lo, hi int) {
		shard := f.shards[s]
		shard.st.Batch(hi - lo)
		for j := lo; j < hi; j++ {
			segOut[idx[j]] = shard.Contains(seg[j])
		}
	})
	return out
}
