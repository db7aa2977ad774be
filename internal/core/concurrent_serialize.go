package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"vqf/internal/minifilter"
)

// Serialization for the concurrent and sharded filters. Concurrent filters
// serialize to the *same* stream format as their sequential counterparts
// (magic "VQF1"/"VQF2"): the only in-memory difference is the locked-mode
// metadata convention — the stored top bit is the lock flag, and a full
// block's final bucket terminator is implicit — so minifilter's codec
// converts each block to the plain form on the way out and back on the way
// in (minifilter/codec.go).
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

// WriteTo serializes the filter in the sequential filter stream format of
// its geometry; it implements io.WriterTo. The filter must be quiescent
// (see the file comment).
func (f *CFilter[B, F, P]) WriteTo(w io.Writer) (int64, error) {
	if err := writeHeader(w, f.geo.magic, uint64(len(f.blocks)), f.count.Load(), f.opts); err != nil {
		return 0, err
	}
	n, err := minifilter.WriteBlocks[B, P](w, f.blocks, true, nil)
	return headerBytes + n, err
}

// read deserializes a geometry-g stream into f: the sequential reader's
// audit, then the locked-form conversion.
func (f *CFilter[B, F, P]) read(r io.Reader, g *geometry) (*CFilter[B, F, P], error) {
	var p plainFilter[B, F, P]
	if _, err := p.read(r, g, g.magic, 0, 0); err != nil {
		return nil, err
	}
	minifilter.ToLocked[B, P](p.blocks)
	f.init(0, p.blocks, p.opts, g)
	f.count.Store(p.count)
	return f, nil
}

// ReadCFilter8 deserializes a concurrent filter from a Filter8-format stream
// (written by either CFilter8.WriteTo or Filter8.WriteTo).
func ReadCFilter8(r io.Reader) (*CFilter8, error) { return new(CFilter8).read(r, &geom8) }

// ReadCFilter16 deserializes a concurrent filter from a Filter16-format
// stream.
func ReadCFilter16(r io.Reader) (*CFilter16, error) { return new(CFilter16).read(r, &geom16) }

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
