package core

// Parallel batch operations for the concurrent filters, and the one
// claimed-worker pool (claimParts) that they and the sharded filters share.
// Keys are radix-partitioned by primary block (the same partitioning the
// sequential batch path uses for locality, batch.go) and the parts are
// fanned out across a bounded worker pool. Because a part is a contiguous
// range of primary-block prefixes, two workers never write the same primary
// block concurrently; secondary-block collisions across parts remain
// possible and are serialized by the per-block locks, so correctness never
// depends on the partitioning — it only removes almost all lock contention
// and restores the sequential batch path's cache locality within each
// worker.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelBatch is the batch size below which spawning workers costs more
// than it saves and the keys are processed on the calling goroutine.
const minParallelBatch = 4096

// poolWorkers returns the size of a claimed-worker pool for n keys over
// parts claimable parts: bounded by GOMAXPROCS, the part count (a worker
// owns every part it claims) and a floor of ~4k keys per worker.
func poolWorkers(n, parts int) int {
	return max(1, min(runtime.GOMAXPROCS(0), parts, n/minParallelBatch))
}

// claimParts is the one claimed-worker pool. It calls work(p, lo, hi) for
// every non-empty part p of a partition — part p spans [bounds[p],
// bounds[p+1]) — on w workers and returns the summed results and how many
// workers handled at least one part. With w == 1 it runs inline in part
// order. Otherwise the workers claim parts through an atomic cursor, which
// load-balances skewed partitions and hands each part to exactly one
// worker, so work never needs to synchronize on a part's data.
func claimParts(w int, bounds []int, work func(p, lo, hi int) int) (total, active int) {
	parts := len(bounds) - 1
	if w == 1 {
		for p := 0; p < parts; p++ {
			if bounds[p] < bounds[p+1] {
				total += work(p, bounds[p], bounds[p+1])
				active = 1
			}
		}
		return total, active
	}
	shared := append([]int(nil), bounds...) // only the pool's copy escapes
	var cursor, sum, fed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, claimed := 0, false
			for {
				p := int(cursor.Add(1)) - 1
				if p >= parts {
					break
				}
				if lo, hi := shared[p], shared[p+1]; lo < hi {
					n += work(p, lo, hi)
					claimed = true
				}
			}
			if claimed {
				fed.Add(1)
			}
			sum.Add(int64(n))
		}()
	}
	wg.Wait()
	return int(sum.Load()), int(fed.Load())
}

// blockCount applies op to every key of hs and returns the number of true
// results. Batches of at least minBatchPartition keys run in block-radix
// order; with parallel set, large ones fan the parts out over a
// claimed-worker pool.
func blockCount(hs []uint64, mask uint64, blockShift uint, op func(uint64) bool, parallel bool) int {
	if len(hs) < minBatchPartition {
		return applyCount(hs, op)
	}
	shift, width := blockRadix(mask, blockShift)
	var bounds [batchShards + 1]int
	sorted := make([]uint64, len(hs))
	radixSort(hs, sorted, nil, &bounds, shift, width)
	parts, w := 1<<width, 1
	if parallel {
		w = poolWorkers(len(hs), parts)
	}
	total, _ := claimParts(w, bounds[:parts+1], func(_, lo, hi int) int {
		return applyCount(sorted[lo:hi], op)
	})
	return total
}

// lookupParts answers every key of hs into out, in input order, through
// scan: hs is cut into maxIdxSegment-key segments so the int32 positions
// fit, each segment is radix-sorted by (shift, width) with positions (see
// radixSort), and scan(p, keys, idx, out) answers part p — keys[j] into
// out[idx[j]] — on a claimed-worker pool. Each position of out is written
// by exactly one worker, so out needs no synchronization beyond the pool's
// final wait.
func lookupParts(hs []uint64, out []bool, shift, width uint, scan func(p int, keys []uint64, idx []int32, out []bool)) {
	parts := 1 << width
	for off := 0; off < len(hs); off += maxIdxSegment {
		end := min(off+maxIdxSegment, len(hs))
		seg, segOut := hs[off:end], out[off:end]
		sorted, idx := make([]uint64, len(seg)), make([]int32, len(seg))
		var bounds [batchShards + 1]int
		radixSort(seg, sorted, idx, &bounds, shift, width)
		claimParts(poolWorkers(len(seg), parts), bounds[:parts+1], func(p, lo, hi int) int {
			scan(p, sorted[lo:hi], idx[lo:hi], segOut)
			return 0
		})
	}
}

// blockContains fills out[i] with contains(hs[i]): in caller order below
// minBatchPartition keys, in block-radix order fanned out over workers
// above it.
func blockContains(hs []uint64, out []bool, mask uint64, blockShift uint, contains func(uint64) bool) {
	if len(hs) < minBatchPartition {
		for i, h := range hs {
			out[i] = contains(h)
		}
		return
	}
	shift, width := blockRadix(mask, blockShift)
	lookupParts(hs, out, shift, width, func(_ int, keys []uint64, idx []int32, out []bool) {
		for j, h := range keys {
			out[idx[j]] = contains(h)
		}
	})
}

// resizeBools returns dst resized to n, reallocating only if its capacity is
// insufficient.
func resizeBools(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}

// InsertBatch inserts the keys of hs in parallel, returning the number
// successfully inserted. Every key is attempted (the result is a success
// count, not a prefix length — see Filter8.InsertBatch) and the insertion
// order is unspecified. Safe for concurrent use alongside any other
// operations.
func (f *CFilter[B, F, P]) InsertBatch(hs []uint64) int { return f.countBatch(hs, false, true) }

// RemoveBatch removes one previously inserted instance of each key of hs in
// parallel, returning the number found and removed. Safe for concurrent use.
func (f *CFilter[B, F, P]) RemoveBatch(hs []uint64) int { return f.countBatch(hs, true, true) }

// countBatch is one counted insert or remove batch in block-radix order,
// fanned out over workers when parallel is set. The sharded filter calls it
// with parallel unset from its own shard-disjoint workers, so pools never
// nest.
func (f *CFilter[B, F, P]) countBatch(hs []uint64, remove, parallel bool) int {
	f.st.Batch(len(hs))
	op := f.Insert
	if remove {
		op = f.Remove
	}
	return blockCount(hs, f.mask, 16+fpBits[F](), op, parallel)
}

// ContainsBatch reports membership for every key of hs, in input order:
// result[i] corresponds to hs[i]. Lookups run lock-free in parallel. The
// result reuses dst if it has sufficient capacity (dst may be nil). Safe for
// concurrent use.
func (f *CFilter[B, F, P]) ContainsBatch(hs []uint64, dst []bool) []bool {
	f.st.Batch(len(hs))
	out := resizeBools(dst, len(hs))
	blockContains(hs, out, f.mask, 16+fpBits[F](), f.Contains)
	return out
}

// lookupBatch is one counted batch of lookups answering keys[j] into
// out[idx[j]]: a shard's share of a sharded ContainsBatch.
func (f *CFilter[B, F, P]) lookupBatch(keys []uint64, idx []int32, out []bool) {
	f.st.Batch(len(keys))
	for j, h := range keys {
		out[idx[j]] = f.Contains(h)
	}
}
