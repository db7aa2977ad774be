package core

// Sharded filters: a power-of-two array of independent thread-safe shards,
// selected by the *top* hash bits. One generic type, Sharded[S], holds the
// shard array for every shard type — the core CFilter8/16 here and the
// elastic concurrent cascade — with the selector, single-key routing, the
// aggregates, ring propagation and the shard-disjoint batch fan-out;
// ShardedFilter[S] adds the core filters' batch, occupancy and VQSH
// serialization surface on top, and Sharded8/Sharded16 name its two
// geometries.
//
// Sharding multiplies every contended resource — block locks, seqlock
// version stripes, striped stats counters, the count accumulator — by the
// shard count, because each shard is a self-contained filter with private
// instances of all of them (each separately heap-allocated, so shards never
// share cache lines). The filter semantics are unchanged: a key's two
// candidate blocks both live in its shard, so lookups still touch at most
// two cache lines plus the shard pointer.
//
// Shard selection uses the highest shardBits of the hash, disjoint from the
// bits the in-shard geometry consumes (bucket and fingerprint from the low
// bits, primary block from bit 24/32 up — see split8/split16) for any filter
// below 2^(40−shardBits) blocks per shard, which is beyond the serializer's
// 2^40-block cap anyway. Keys therefore spread near-uniformly and
// independently of their in-shard placement.
//
// Batch operations sort the keys by shard with the same counting sort the
// block partition uses (radixSort over the shard radix) and fan the shards
// out over the claimed-worker pool (claimParts), in which each worker *owns*
// the shards it claims: two workers never operate on the same shard, so
// batch workers contend on nothing at all — not even the secondary-block
// collisions the single-filter parallel batches retain. Within its claimed
// shard a worker runs the shard's own batch sequentially (block-radix order,
// no nested pool).

import (
	"fmt"
	"io"

	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// maxShardBits bounds the shard count to 256: beyond the core counts of any
// machine this code plausibly meets, and it keeps the shard radix one byte.
const maxShardBits = 8

// ShardBitsFor returns ceil(log2(n)) clamped to [0, maxShardBits]; n <= 0
// selects a single shard.
func ShardBitsFor(n int) uint {
	bits := uint(0)
	for 1<<bits < n && bits < maxShardBits {
		bits++
	}
	return bits
}

// Shard is the constraint on a sharded filter's shard type: a thread-safe
// filter over pre-hashed keys that records rare events into a ring.
type Shard interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	Remove(h uint64) bool
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
	Stats() stats.OpCounts
	SetEventRing(r *telemetry.Ring)
}

// Sharded is a sharded thread-safe filter: a power-of-two array of shards
// selected by the top hash bits. Single-key operations delegate to one
// shard; the aggregates sum over all of them.
type Sharded[S Shard] struct {
	shards    []S
	shardBits uint
	ring      *telemetry.Ring
}

// NewShardedOf builds a sharded filter of nshards shards (rounded up to a
// power of two, clamped to [1, 256]) by calling mk once per shard, in shard
// order, with the rounded shard count. The first error stops the build and
// is returned naming its shard.
func NewShardedOf[S Shard](nshards int, mk func(nshards int) (S, error)) (*Sharded[S], error) {
	bits := ShardBitsFor(nshards)
	f := &Sharded[S]{shards: make([]S, 1<<bits), shardBits: bits}
	for i := range f.shards {
		s, err := mk(len(f.shards))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		f.shards[i] = s
	}
	return f, nil
}

// NumShards returns the shard count (a power of two).
func (f *Sharded[S]) NumShards() int { return len(f.shards) }

// Shards returns the shards in shard order. The slice is the filter's own:
// callers must not modify it.
func (f *Sharded[S]) Shards() []S { return f.shards }

// ShardCounts returns each shard's current item count, for balance
// diagnostics.
func (f *Sharded[S]) ShardCounts() []uint64 {
	out := make([]uint64, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Count()
	}
	return out
}

// shard returns the shard of hash h: its top shardBits bits. For
// shardBits == 0 the shift count is 64, which in Go yields 0 — every key
// lands in the single shard.
func (f *Sharded[S]) shard(h uint64) S { return f.shards[h>>(64-f.shardBits)] }

// Insert adds the pre-hashed key h to its shard. Safe for concurrent use.
func (f *Sharded[S]) Insert(h uint64) bool { return f.shard(h).Insert(h) }

// Contains reports whether h may be in the filter, probing only h's shard.
// Safe for concurrent use.
func (f *Sharded[S]) Contains(h uint64) bool { return f.shard(h).Contains(h) }

// Remove deletes one previously inserted instance of h. Safe for concurrent
// use.
func (f *Sharded[S]) Remove(h uint64) bool { return f.shard(h).Remove(h) }

// sum adds get over every shard.
func (f *Sharded[S]) sum(get func(S) uint64) uint64 {
	var n uint64
	for _, s := range f.shards {
		n += get(s)
	}
	return n
}

// Count returns the number of items stored across all shards.
func (f *Sharded[S]) Count() uint64 { return f.sum(S.Count) }

// Capacity returns the total slots across all shards.
func (f *Sharded[S]) Capacity() uint64 { return f.sum(S.Capacity) }

// SizeBytes returns the memory footprint summed over shards.
func (f *Sharded[S]) SizeBytes() uint64 { return f.sum(S.SizeBytes) }

// LoadFactor returns Count divided by Capacity.
func (f *Sharded[S]) LoadFactor() float64 { return float64(f.Count()) / float64(f.Capacity()) }

// Stats returns operation counters summed across shards. Each shard's
// counters are private (no cross-shard contention); the sum inherits the
// per-counter exactness and monotonicity of the shards' counters.
func (f *Sharded[S]) Stats() stats.OpCounts {
	var total stats.OpCounts
	for _, s := range f.shards {
		total = total.Add(s.Stats())
	}
	return total
}

// SetEventRing attaches r to the sharded filter and every shard, so shard
// events and pool stalls land in one stream. Call before sharing the
// filter across goroutines.
func (f *Sharded[S]) SetEventRing(r *telemetry.Ring) {
	f.ring = r
	for _, s := range f.shards {
		s.SetEventRing(r)
	}
}

// fanOut sorts hs by shard and runs seq over each shard's keys on
// shard-disjoint claimed workers, returning the summed results. A pool that
// finishes with idle workers records EvShardClaimStall.
func (f *Sharded[S]) fanOut(hs []uint64, seq func(s S, keys []uint64) int) int {
	var bounds [batchShards + 1]int
	sorted := make([]uint64, len(hs))
	radixSort(hs, sorted, nil, &bounds, 64-f.shardBits, f.shardBits)
	w := poolWorkers(len(hs), len(f.shards))
	total, active := claimParts(w, bounds[:len(f.shards)+1], func(s, lo, hi int) int {
		return seq(f.shards[s], sorted[lo:hi])
	})
	if w > 1 {
		stallEvent(f.ring, active, w, len(hs))
	}
	return total
}

// fanOutLookup answers every key of hs into out, in input order, with scan
// answering one shard's keys (keys[j] into out[idx[j]]) on shard-disjoint
// claimed workers.
func (f *Sharded[S]) fanOutLookup(hs []uint64, out []bool, scan func(s S, keys []uint64, idx []int32, out []bool)) {
	lookupParts(hs, out, 64-f.shardBits, f.shardBits, func(s int, keys []uint64, idx []int32, out []bool) {
		scan(f.shards[s], keys, idx, out)
	})
}

// coreShard is the constraint on ShardedFilter's shards, the core
// concurrent filters: Shard plus the batch, occupancy and serialization
// surface the sharded filter forwards.
type coreShard interface {
	Shard
	InsertBatch(hs []uint64) int
	RemoveBatch(hs []uint64) int
	ContainsBatch(hs []uint64, dst []bool) []bool
	SlotsPerBlock() uint
	BlockOccupancies() []uint
	WriteTo(w io.Writer) (int64, error)
	countBatch(hs []uint64, remove, parallel bool) int
	lookupBatch(keys []uint64, idx []int32, out []bool)
}

// ShardedFilter is a sharded core filter: Sharded over CFilter8 or
// CFilter16 shards, with shard-disjoint parallel batches and the VQSH
// stream format.
type ShardedFilter[S coreShard] struct {
	*Sharded[S]
}

// Sharded8 is the sharded filter with 8-bit fingerprints.
type Sharded8 = ShardedFilter[*CFilter8]

// Sharded16 is the sharded filter with 16-bit fingerprints.
type Sharded16 = ShardedFilter[*CFilter16]

// NewSharded8 creates a sharded filter with at least nslots total slots
// spread over nshards shards (rounded up to a power of two, clamped to
// [1, 256]). Each shard is an independent CFilter8 sized for its share.
func NewSharded8(nslots uint64, nshards int, opts Options) *Sharded8 {
	sh, _ := NewShardedOf(nshards, func(n int) (*CFilter8, error) { // never fails
		return NewCFilter8(perShard(nslots, n), opts), nil
	})
	return &Sharded8{sh}
}

// NewSharded16 creates a sharded 16-bit-fingerprint filter; see NewSharded8.
func NewSharded16(nslots uint64, nshards int, opts Options) *Sharded16 {
	sh, _ := NewShardedOf(nshards, func(n int) (*CFilter16, error) { // never fails
		return NewCFilter16(perShard(nslots, n), opts), nil
	})
	return &Sharded16{sh}
}

// perShard is one shard's share of nslots over n shards, rounded up.
func perShard(nslots uint64, n int) uint64 { return (nslots + uint64(n) - 1) / uint64(n) }

// SlotsPerBlock returns the fingerprint slots per mini-filter block.
func (f *ShardedFilter[S]) SlotsPerBlock() uint { return f.shards[0].SlotsPerBlock() }

// BlockOccupancies returns the concatenated per-block occupancies of every
// shard, in shard order — all shards share one geometry, so the combined
// vector feeds the same histogram a single filter's would.
func (f *ShardedFilter[S]) BlockOccupancies() []uint {
	var out []uint
	for _, s := range f.shards {
		out = append(out, s.BlockOccupancies()...)
	}
	return out
}

// ShardSnapshots returns one full structural snapshot per shard, in shard
// order. fprFullLoad is the geometry's analytic full-load FPR (a constant
// shared by every shard). Cost is O(total blocks), same as one aggregate
// snapshot.
func (f *ShardedFilter[S]) ShardSnapshots(fprFullLoad float64) []stats.Snapshot {
	out := make([]stats.Snapshot, len(f.shards))
	for i, s := range f.shards {
		out[i] = stats.BuildSnapshot(s.Count(), s.Capacity(), s.SizeBytes(), fprFullLoad,
			s.BlockOccupancies(), s.SlotsPerBlock(), s.Stats())
	}
	return out
}

// InsertBatch inserts the keys of hs in parallel with shard-disjoint
// workers, returning the number successfully inserted. Safe for concurrent
// use alongside any other operations.
func (f *ShardedFilter[S]) InsertBatch(hs []uint64) int {
	if len(f.shards) == 1 {
		return f.shards[0].InsertBatch(hs)
	}
	return f.fanOut(hs, func(s S, keys []uint64) int { return s.countBatch(keys, false, false) })
}

// RemoveBatch removes one instance of each key of hs in parallel with
// shard-disjoint workers, returning the number found and removed.
func (f *ShardedFilter[S]) RemoveBatch(hs []uint64) int {
	if len(f.shards) == 1 {
		return f.shards[0].RemoveBatch(hs)
	}
	return f.fanOut(hs, func(s S, keys []uint64) int { return s.countBatch(keys, true, false) })
}

// ContainsBatch reports membership for every key of hs in input order;
// lookups run lock-free with shard-disjoint workers. The result reuses dst
// if it has sufficient capacity (dst may be nil).
func (f *ShardedFilter[S]) ContainsBatch(hs []uint64, dst []bool) []bool {
	if len(f.shards) == 1 {
		return f.shards[0].ContainsBatch(hs, dst)
	}
	out := resizeBools(dst, len(hs))
	f.fanOutLookup(hs, out, S.lookupBatch)
	return out
}
