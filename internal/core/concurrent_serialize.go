package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"

	"vqf/internal/minifilter"
)

// Serialization for the concurrent and sharded filters. Concurrent filters
// serialize to the *same* stream format as their sequential counterparts
// (magic "VQF1"/"VQF2"): the only in-memory difference is the locked-mode
// metadata convention — the stored top bit is the lock flag, and a full
// block's final bucket terminator is implicit — so each block is converted
// to the plain form on the way out and back on the way in:
//
//   - write: a quiescent locked-mode block has the lock bit clear; if its
//     remaining metadata carries only 79 (resp. 35) terminators the block is
//     full and the plain form's top bit IS the final terminator, so it is
//     set. Otherwise the forms are bit-identical.
//   - read: a plain block's top bit is set exactly when the block is full;
//     clearing it unconditionally yields the stored locked form.
//
// One format means a filter persisted by a sequential writer can be loaded
// into a concurrent (or sharded) reader and vice versa.
//
// WriteTo requires the filter to be quiescent: no concurrent writers (a held
// lock bit is detected and reported as an error, but the fingerprint reads
// are not torn-proof, so "no writers" is the caller's contract, not one the
// encoder can enforce).
//
// A sharded filter serializes as a small sub-header (geometry and shard
// count) followed by each shard's stream in shard order; the envelope kind
// and hash seed live a layer up, in the public package.

const (
	shardMagic       = 0x48535156 // "VQSH"
	shardHeaderBytes = 4 + 2 + 2 + 4 + 4
)

// errLockedBlock reports a serialization attempt on a filter with an active
// writer.
func errLockedBlock(i int) error {
	return fmt.Errorf("core: block %d is locked; serialization requires a quiescent filter", i)
}

// WriteTo serializes the filter in the sequential Filter8 stream format; it
// implements io.WriterTo. The filter must be quiescent (see the file
// comment).
func (f *CFilter8) WriteTo(w io.Writer) (int64, error) {
	if err := writeHeader(w, magic8, uint64(len(f.blocks)), f.count.Load(), f.opts); err != nil {
		return 0, err
	}
	n := int64(headerBytes)
	buf := make([]byte, 64)
	for i := range f.blocks {
		b := &f.blocks[i]
		lo, hi := b.MetaLo, b.MetaHi
		if hi&minifilter.LockBit != 0 {
			return n, errLockedBlock(i)
		}
		if bits.OnesCount64(lo)+bits.OnesCount64(hi) == minifilter.B8Buckets-1 {
			hi |= minifilter.LockBit // full: the top bit is the 80th terminator
		}
		binary.LittleEndian.PutUint64(buf[0:], lo)
		binary.LittleEndian.PutUint64(buf[8:], hi)
		for j, word := range b.Fps {
			binary.LittleEndian.PutUint64(buf[16+8*j:], word)
		}
		m, err := w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadCFilter8 deserializes a concurrent filter from a Filter8-format stream
// (written by either CFilter8.WriteTo or Filter8.WriteTo).
func ReadCFilter8(r io.Reader) (*CFilter8, error) {
	p, err := readFilter8(r, 0) // validates header, caps, and invariants
	if err != nil {
		return nil, err
	}
	f := &CFilter8{
		blocks: p.blocks,
		seqs:   make([]atomic.Uint64, seqStripesFor(uint64(len(p.blocks)))),
		mask:   p.mask,
		opts:   p.opts,
		thresh: p.opts.threshold(minifilter.B8Slots, defThreshold8),
	}
	f.seqMask = uint64(len(f.seqs)) - 1
	f.count.Store(p.count)
	for i := range f.blocks {
		f.blocks[i].MetaHi &^= minifilter.LockBit // plain full-bit -> locked stored form
	}
	return f, nil
}

// WriteTo serializes the filter in the sequential Filter16 stream format; it
// implements io.WriterTo. The filter must be quiescent.
func (f *CFilter16) WriteTo(w io.Writer) (int64, error) {
	if err := writeHeader(w, magic16, uint64(len(f.blocks)), f.count.Load(), f.opts); err != nil {
		return 0, err
	}
	n := int64(headerBytes)
	buf := make([]byte, 64)
	for i := range f.blocks {
		b := &f.blocks[i]
		meta := b.Meta
		if meta&minifilter.LockBit != 0 {
			return n, errLockedBlock(i)
		}
		if bits.OnesCount64(meta) == minifilter.B16Buckets-1 {
			meta |= minifilter.LockBit // full: the top bit is the 36th terminator
		}
		binary.LittleEndian.PutUint64(buf[0:], meta)
		for j, word := range b.Fps {
			binary.LittleEndian.PutUint64(buf[8+8*j:], word)
		}
		m, err := w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadCFilter16 deserializes a concurrent filter from a Filter16-format
// stream.
func ReadCFilter16(r io.Reader) (*CFilter16, error) {
	p, err := readFilter16(r, 0)
	if err != nil {
		return nil, err
	}
	f := &CFilter16{
		blocks: p.blocks,
		seqs:   make([]atomic.Uint64, seqStripesFor(uint64(len(p.blocks)))),
		mask:   p.mask,
		opts:   p.opts,
		thresh: p.opts.threshold(minifilter.B16Slots, defThreshold16),
	}
	f.seqMask = uint64(len(f.seqs)) - 1
	f.count.Store(p.count)
	for i := range f.blocks {
		f.blocks[i].Meta &^= minifilter.LockBit
	}
	return f, nil
}

// writeShardHeader emits the sharded sub-header: magic, version, geometry
// kind (8 or 16), shard count.
func writeShardHeader(w io.Writer, geom uint16, nshards uint32) (int64, error) {
	var hdr [shardHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint16(hdr[4:], serialVersion)
	binary.LittleEndian.PutUint16(hdr[6:], geom)
	binary.LittleEndian.PutUint32(hdr[8:], nshards)
	n, err := w.Write(hdr[:])
	return int64(n), err
}

func readShardHeader(r io.Reader) (geom uint16, nshards uint32, err error) {
	var hdr [shardHeaderBytes]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != shardMagic {
		return 0, 0, fmt.Errorf("%w: bad shard magic", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != serialVersion {
		return 0, 0, fmt.Errorf("%w: unsupported shard version %d", ErrBadFormat, v)
	}
	geom = binary.LittleEndian.Uint16(hdr[6:])
	if geom != 8 && geom != 16 {
		return 0, 0, fmt.Errorf("%w: unknown shard geometry %d", ErrBadFormat, geom)
	}
	nshards = binary.LittleEndian.Uint32(hdr[8:])
	if nshards == 0 || nshards > 1<<maxShardBits || nshards&(nshards-1) != 0 {
		return 0, 0, fmt.Errorf("%w: shard count %d not a power of two in [1, %d]",
			ErrBadFormat, nshards, 1<<maxShardBits)
	}
	return geom, nshards, nil
}

// WriteTo serializes the sharded filter: the shard sub-header followed by
// each shard's stream. It implements io.WriterTo; the filter must be
// quiescent.
func (f *ShardedFilter[S]) WriteTo(w io.Writer) (int64, error) {
	geom := uint16(16)
	if f.SlotsPerBlock() == minifilter.B8Slots {
		geom = 8
	}
	n, err := writeShardHeader(w, geom, uint32(len(f.shards)))
	if err != nil {
		return n, err
	}
	for _, s := range f.shards {
		m, err := s.WriteTo(w)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadSharded deserializes a sharded filter written by ShardedFilter.WriteTo;
// exactly one of the returns is non-nil on success (the stream records which
// geometry it holds).
func ReadSharded(r io.Reader) (*Sharded8, *Sharded16, error) {
	geom, nshards, err := readShardHeader(r)
	if err != nil {
		return nil, nil, err
	}
	if geom == 8 {
		sh, err := NewShardedOf(int(nshards), func(int) (*CFilter8, error) { return ReadCFilter8(r) })
		if err != nil {
			return nil, nil, err
		}
		return &Sharded8{sh}, nil, nil
	}
	sh, err := NewShardedOf(int(nshards), func(int) (*CFilter16, error) { return ReadCFilter16(r) })
	if err != nil {
		return nil, nil, err
	}
	return nil, &Sharded16{sh}, nil
}
