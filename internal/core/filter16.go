package core

import "vqf/internal/swar"

// Filter16 is a single-threaded vector quotient filter with 16-bit
// fingerprints (target false-positive rate ≈ 2⁻¹⁶; empirically ≈ 0.000023,
// paper §5). Blocks hold 28 slots across 36 buckets in one 64-byte cache
// line.
type Filter16 struct {
	plain16
	scratch batchScratch // see Filter8
}

// NewFilter16 creates a filter with at least nslots fingerprint slots; see
// NewFilter8 for sizing semantics.
func NewFilter16(nslots uint64, opts Options) *Filter16 {
	f := &Filter16{}
	f.init(nslots, nil, opts, &geom16)
	return f
}

// Insert adds the pre-hashed key h to the filter; see Filter8.Insert.
func (f *Filter16) Insert(h uint64) bool {
	b1, bucket, fp, tag := split16(h, f.mask)
	if f.opts.Generic {
		return f.insertGeneric(h, b1, bucket, fp, tag)
	}
	blk1 := &f.blocks[b1]
	occ1 := blk1.Occupancy()
	if !f.opts.NoShortcut && occ1 < f.thresh {
		blk1.Insert(bucket, fp)
		f.count++
		f.st.ShortcutInsert()
		return true
	}
	b2 := secondary(h, b1, tag, f.mask, f.opts.IndependentHash)
	blk := blk1
	if f.blocks[b2].Occupancy() < occ1 {
		blk = &f.blocks[b2]
	}
	if !blk.Insert(bucket, fp) {
		f.st.InsertFailure()
		return false
	}
	f.count++
	f.st.Insert()
	return true
}

func (f *Filter16) insertGeneric(h, b1 uint64, bucket uint, fp uint16, tag uint64) bool {
	blk1 := &f.blocks[b1]
	occ1 := blk1.OccupancyGeneric()
	if !f.opts.NoShortcut && occ1 < f.thresh {
		blk1.InsertGeneric(bucket, fp)
		f.count++
		f.st.ShortcutInsert()
		return true
	}
	b2 := secondary(h, b1, tag, f.mask, f.opts.IndependentHash)
	blk := blk1
	if f.blocks[b2].OccupancyGeneric() < occ1 {
		blk = &f.blocks[b2]
	}
	if !blk.InsertGeneric(bucket, fp) {
		f.st.InsertFailure()
		return false
	}
	f.count++
	f.st.Insert()
	return true
}

// Contains reports whether the pre-hashed key h may be in the filter.
func (f *Filter16) Contains(h uint64) bool {
	b1, bucket, fp, tag := split16(h, f.mask)
	f.st.Lookup()
	if f.opts.Generic {
		if f.blocks[b1].ContainsGeneric(bucket, fp) {
			return true
		}
		b2 := secondary(h, b1, tag, f.mask, f.opts.IndependentHash)
		return f.blocks[b2].ContainsGeneric(bucket, fp)
	}
	// Broadcast the fingerprint once; both block probes reuse it.
	bc := swar.BroadcastU16(fp)
	if f.blocks[b1].Probe(bucket, bc) != 0 {
		return true
	}
	b2 := secondary(h, b1, tag, f.mask, f.opts.IndependentHash)
	return f.blocks[b2].Probe(bucket, bc) != 0
}

// Remove deletes one previously inserted instance of the pre-hashed key h;
// see Filter8.Remove for the deletion-safety contract.
func (f *Filter16) Remove(h uint64) bool {
	b1, bucket, fp, tag := split16(h, f.mask)
	b2 := secondary(h, b1, tag, f.mask, f.opts.IndependentHash)
	if f.opts.Generic {
		if f.blocks[b1].RemoveGeneric(bucket, fp) || f.blocks[b2].RemoveGeneric(bucket, fp) {
			f.count--
			f.st.Remove()
			return true
		}
		f.st.RemoveMiss()
		return false
	}
	bc := swar.BroadcastU16(fp)
	if f.blocks[b1].RemoveB(bucket, bc) || f.blocks[b2].RemoveB(bucket, bc) {
		f.count--
		f.st.Remove()
		return true
	}
	f.st.RemoveMiss()
	return false
}
