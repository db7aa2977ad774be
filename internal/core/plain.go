package core

import (
	"vqf/internal/minifilter"
	"vqf/internal/stats"
)

// plainFilter is the state and the geometry-generic surface the
// single-threaded filters share: Filter8 and Filter16 embed it, and so does
// KVFilter8 (its options stay zero). It owns construction, the size,
// occupancy and stats accessors, iteration (iterate.go), the invariant
// audit (validate.go) and the stream reader and writer (serialize.go).
// The per-key Insert/Contains/Remove and the batch sweeps stay on the
// concrete types: a block method called through a type parameter goes
// through the instantiation's dictionary and does not inline, which cost a
// generic Filter16 4–17% on positive lookups (DESIGN §5, "One source per
// geometry").
type plainFilter[B any, F minifilter.Fingerprint, P minifilter.Block[B, F]] struct {
	blocks []B
	mask   uint64
	count  uint64
	opts   Options
	thresh uint
	geo    geometry
	st     stats.Local
}

type (
	plain8  = plainFilter[minifilter.Block8, byte, *minifilter.Block8]
	plain16 = plainFilter[minifilter.Block16, uint16, *minifilter.Block16]
)

// newBlocks returns n empty blocks.
func newBlocks[B any, F minifilter.Fingerprint, P minifilter.Block[B, F]](n uint64) []B {
	blocks := make([]B, n)
	for i := range blocks {
		P(&blocks[i]).Reset()
	}
	return blocks
}

// init sets f up over blocks, or over a fresh array of at least nslots
// slots when blocks is nil.
func (f *plainFilter[B, F, P]) init(nslots uint64, blocks []B, opts Options, g *geometry) {
	if blocks == nil {
		blocks = newBlocks[B, F, P](blocksFor(nslots, g.slots))
	}
	f.blocks, f.mask, f.opts, f.thresh, f.geo = blocks, uint64(len(blocks))-1, opts, opts.threshold(g), *g
}

// Capacity returns the total number of fingerprint slots.
func (f *plainFilter[B, F, P]) Capacity() uint64 { return uint64(len(f.blocks)) * f.geo.slots }

// Count returns the number of fingerprints currently stored.
func (f *plainFilter[B, F, P]) Count() uint64 { return f.count }

// LoadFactor returns Count divided by Capacity.
func (f *plainFilter[B, F, P]) LoadFactor() float64 { return float64(f.count) / float64(f.Capacity()) }

// NumBlocks returns the number of mini-filter blocks.
func (f *plainFilter[B, F, P]) NumBlocks() uint64 { return uint64(len(f.blocks)) }

// SizeBytes returns the memory footprint of the block array.
func (f *plainFilter[B, F, P]) SizeBytes() uint64 {
	return uint64(len(f.blocks)) * minifilter.BlockBytes
}

// SlotsPerBlock returns the fingerprint slots per mini-filter block.
func (f *plainFilter[B, F, P]) SlotsPerBlock() uint { return uint(f.geo.slots) }

// BlockOccupancies returns the occupancy of every block; the harness uses it
// to measure placement variance for the power-of-two-choices experiments.
func (f *plainFilter[B, F, P]) BlockOccupancies() []uint {
	out := make([]uint, len(f.blocks))
	for i := range f.blocks {
		out[i] = P(&f.blocks[i]).Occupancy()
	}
	return out
}

// Stats returns the filter's operation counters. Like every other method of
// the single-threaded filters, it must not race with mutations.
func (f *plainFilter[B, F, P]) Stats() stats.OpCounts { return f.st.Counts() }

// Blocks exposes the block array for white-box corruption tests.
func (f *plainFilter[B, F, P]) Blocks() []B { return f.blocks }
