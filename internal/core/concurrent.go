package core

import (
	"sync/atomic"

	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// Concurrent filter variants (paper §6.3, extended). Writers take per-block
// spin locks (the top metadata bit of each block), at most two per
// operation, always in increasing index order. Queries are lock-free on the
// common path: they use the seqlock-style optimistic snapshot protocol of
// internal/minifilter/optimistic.go, validated against a striped array of
// version counters that writers bump on every mutation (UnlockBump). A
// lookup therefore costs zero atomic read-modify-writes unless it collides
// with an in-flight writer on the same block, in which case it retries and
// eventually falls back to the lock.

// seqStripes is the number of seqlock version counters a concurrent filter
// keeps. Blocks share stripes by low index bits; a shared stripe can cause a
// spurious reader retry when an unrelated block on the same stripe is
// written, but never a missed conflict. The cap keeps the side array at
// 32 KiB regardless of filter size.
const seqStripes = 1 << 12

func seqStripesFor(nblocks uint64) uint64 {
	if nblocks < seqStripes {
		return nblocks // always a power of two, like the block count
	}
	return seqStripes
}

// CFilter is the thread-safe vector quotient filter over block type B
// (fingerprint lanes F, block methods P). Inserts and removes lock at most
// two blocks; Contains is lock-free (optimistic) on the common path. One
// generic type serves both geometries: its block methods are called through
// the instantiation's dictionary, which costs next to nothing beside the
// lock and seqlock atomics every operation pays (DESIGN §5).
type CFilter[B any, F minifilter.Fingerprint, P minifilter.Block[B, F]] struct {
	blocks  []B
	seqs    []atomic.Uint64
	seqMask uint64
	mask    uint64
	count   atomic.Uint64
	opts    Options
	thresh  uint
	geo     geometry
	st      stats.Striped
	ring    *telemetry.Ring
}

// CFilter8 is the thread-safe filter with 8-bit fingerprints.
type CFilter8 = CFilter[minifilter.Block8, byte, *minifilter.Block8]

// CFilter16 is the thread-safe filter with 16-bit fingerprints.
type CFilter16 = CFilter[minifilter.Block16, uint16, *minifilter.Block16]

// NewCFilter8 creates a thread-safe filter with at least nslots slots; see
// NewFilter8 for sizing semantics. IndependentHash and Generic options are
// not supported on the concurrent variants and are ignored.
func NewCFilter8(nslots uint64, opts Options) *CFilter8 {
	return new(CFilter8).init(nslots, nil, opts, &geom8)
}

// NewCFilter16 creates a thread-safe 16-bit-fingerprint filter.
func NewCFilter16(nslots uint64, opts Options) *CFilter16 {
	return new(CFilter16).init(nslots, nil, opts, &geom16)
}

// init sets f up over blocks (in the locked-mode form), or over a fresh
// array of at least nslots slots when blocks is nil. A fresh block is empty,
// so its top bit — in the locked form purely the lock flag — is already 0.
func (f *CFilter[B, F, P]) init(nslots uint64, blocks []B, opts Options, g *geometry) *CFilter[B, F, P] {
	if blocks == nil {
		blocks = newBlocks[B, F, P](blocksFor(nslots, g.slots))
	}
	f.blocks, f.mask, f.opts, f.thresh, f.geo = blocks, uint64(len(blocks))-1, opts, opts.threshold(g), *g
	f.seqs = make([]atomic.Uint64, seqStripesFor(uint64(len(blocks))))
	f.seqMask = uint64(len(f.seqs)) - 1
	return f
}

// block returns block b.
func (f *CFilter[B, F, P]) block(b uint64) P { return P(&f.blocks[b]) }

// seq returns the version stripe for block index b.
func (f *CFilter[B, F, P]) seq(b uint64) *atomic.Uint64 { return &f.seqs[b&f.seqMask] }

// Capacity returns the total number of fingerprint slots.
func (f *CFilter[B, F, P]) Capacity() uint64 { return uint64(len(f.blocks)) * f.geo.slots }

// Count returns the number of fingerprints currently stored.
func (f *CFilter[B, F, P]) Count() uint64 { return f.count.Load() }

// LoadFactor returns Count divided by Capacity.
func (f *CFilter[B, F, P]) LoadFactor() float64 { return float64(f.Count()) / float64(f.Capacity()) }

// NumBlocks returns the number of mini-filter blocks.
func (f *CFilter[B, F, P]) NumBlocks() uint64 { return uint64(len(f.blocks)) }

// SizeBytes returns the memory footprint of the block array and the seqlock
// version stripes.
func (f *CFilter[B, F, P]) SizeBytes() uint64 {
	return uint64(len(f.blocks))*minifilter.BlockBytes + uint64(len(f.seqs))*8
}

// Insert adds the pre-hashed key h, returning false if both candidate blocks
// are full. Safe for concurrent use. The shortcut occupancy probe is
// optimistic, so the common low-occupancy insert acquires exactly one lock.
func (f *CFilter[B, F, P]) Insert(h uint64) bool {
	b1, bucket, fp, tag := splitAs[F](h, f.mask, &f.geo)
	blk1, seq1 := f.block(b1), f.seq(b1)
	if !f.opts.NoShortcut {
		occ, retries, ok := blk1.OccupancyOptimisticCounted(seq1)
		f.st.Optimistic(b1, retries, !ok)
		if !ok {
			f.fallbackEvent(b1, retries)
		}
		if ok && occ < f.thresh {
			blk1.Lock()
			// Re-check under the lock: a racing writer may have filled the
			// block past the threshold since the probe.
			if blk1.OccupancyLocked() < f.thresh {
				blk1.InsertLocked(bucket, fp)
				blk1.UnlockBump(seq1)
				f.count.Add(1)
				f.st.ShortcutInsert(b1)
				return true
			}
			blk1.Unlock()
		}
	}
	blk1.Lock()
	occ1 := blk1.OccupancyLocked()
	if !f.opts.NoShortcut && occ1 < f.thresh {
		blk1.InsertLocked(bucket, fp)
		blk1.UnlockBump(seq1)
		f.count.Add(1)
		f.st.ShortcutInsert(b1)
		return true
	}
	b2 := secondary(h, b1, tag, f.mask, false)
	if b2 == b1 {
		ok := blk1.InsertLocked(bucket, fp)
		if ok {
			blk1.UnlockBump(seq1)
			f.count.Add(1)
			f.st.Insert(b1)
		} else {
			blk1.Unlock()
			f.st.InsertFailure(b1)
		}
		return ok
	}
	blk2 := f.block(b2)
	// Lock-ordering protocol: if the secondary block has the lower index,
	// release the primary and re-acquire in increasing order (§6.3).
	if b2 < b1 {
		blk1.Unlock()
		blk2.Lock()
		blk1.Lock()
		occ1 = blk1.OccupancyLocked()
	} else {
		blk2.Lock()
	}
	occ2 := blk2.OccupancyLocked()
	tgt, other, tgtSeq := blk1, blk2, seq1
	if occ2 < occ1 {
		tgt, other, tgtSeq = blk2, blk1, f.seq(b2)
	}
	other.Unlock()
	ok := tgt.InsertLocked(bucket, fp)
	if ok {
		tgt.UnlockBump(tgtSeq)
		f.count.Add(1)
		f.st.Insert(b1)
	} else {
		tgt.Unlock()
		f.st.InsertFailure(b1)
	}
	return ok
}

// Contains reports whether the pre-hashed key h may be in the filter. Safe
// for concurrent use and lock-free on the common path: each candidate block
// is snapshotted optimistically and scanned without acquiring its lock.
func (f *CFilter[B, F, P]) Contains(h uint64) bool {
	b1, bucket, fp, tag := splitAs[F](h, f.mask, &f.geo)
	f.st.Lookup(b1)
	bc := minifilter.Broadcast(fp)
	mask, retries, fellBack := f.block(b1).ProbeOptimistic(f.seq(b1), bucket, bc)
	f.st.Optimistic(b1, retries, fellBack)
	if fellBack {
		f.fallbackEvent(b1, retries)
	}
	if mask != 0 {
		return true
	}
	b2 := secondary(h, b1, tag, f.mask, false)
	if b2 == b1 {
		return false
	}
	mask, retries, fellBack = f.block(b2).ProbeOptimistic(f.seq(b2), bucket, bc)
	f.st.Optimistic(b1, retries, fellBack)
	if fellBack {
		f.fallbackEvent(b2, retries)
	}
	return mask != 0
}

// ContainsLocked is the pre-optimistic lookup path: it acquires each
// candidate block's spin lock for the duration of its fingerprint scan. It
// is retained as the baseline the reader-scaling benchmark compares the
// optimistic path against (cmd/vqfbench concurrent); application code
// should use Contains.
func (f *CFilter[B, F, P]) ContainsLocked(h uint64) bool {
	b1, bucket, fp, tag := splitAs[F](h, f.mask, &f.geo)
	f.st.Lookup(b1)
	bc := minifilter.Broadcast(fp)
	blk1 := f.block(b1)
	blk1.Lock()
	found := blk1.ContainsLockedB(bucket, bc)
	blk1.Unlock()
	if found {
		return true
	}
	b2 := secondary(h, b1, tag, f.mask, false)
	if b2 == b1 {
		return false
	}
	blk2 := f.block(b2)
	blk2.Lock()
	found = blk2.ContainsLockedB(bucket, bc)
	blk2.Unlock()
	return found
}

// Remove deletes one previously inserted instance of the pre-hashed key h.
// Safe for concurrent use.
func (f *CFilter[B, F, P]) Remove(h uint64) bool {
	b1, bucket, fp, tag := splitAs[F](h, f.mask, &f.geo)
	if f.removeAt(b1, b1, bucket, fp) {
		return true
	}
	b2 := secondary(h, b1, tag, f.mask, false)
	if b2 == b1 || !f.removeAt(b1, b2, bucket, fp) {
		f.st.RemoveMiss(b1)
		return false
	}
	return true
}

// removeAt removes one instance of fp from bucket of block b for a key whose
// primary block is b1, reporting whether it found one.
func (f *CFilter[B, F, P]) removeAt(b1, b uint64, bucket uint, fp F) bool {
	blk := f.block(b)
	blk.Lock()
	if !blk.RemoveLocked(bucket, fp) {
		blk.Unlock()
		return false
	}
	blk.UnlockBump(f.seq(b))
	f.count.Add(^uint64(0))
	f.st.Remove(b1)
	return true
}

// Stats returns the filter's operation counters. Safe for concurrent use:
// stripes are summed with atomic loads and writers are never blocked. Each
// counter is individually exact and monotone across calls, but a snapshot
// taken while operations are in flight is not a consistent cut (see
// internal/stats).
func (f *CFilter[B, F, P]) Stats() stats.OpCounts { return f.st.Counts() }

// SlotsPerBlock returns the fingerprint slots per mini-filter block.
func (f *CFilter[B, F, P]) SlotsPerBlock() uint { return uint(f.geo.slots) }

// BlockOccupancies returns a point-in-time occupancy of every block. Safe
// for concurrent use; each block is read with the validated optimistic
// protocol (falling back to a brief single-block lock on repeated
// conflicts), so writers are never blocked for more than one block's
// critical section. Blocks are sampled one at a time: the vector is exact
// per block but not a consistent cut of the whole filter. Snapshot reads are
// not recorded in the operation counters.
func (f *CFilter[B, F, P]) BlockOccupancies() []uint {
	out := make([]uint, len(f.blocks))
	for i := range f.blocks {
		blk := f.block(uint64(i))
		if occ, _, ok := blk.OccupancyOptimisticCounted(f.seq(uint64(i))); ok {
			out[i] = occ
			continue
		}
		blk.Lock()
		out[i] = blk.OccupancyLocked()
		blk.Unlock()
	}
	return out
}
