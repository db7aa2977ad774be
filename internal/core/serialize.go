package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"vqf/internal/minifilter"
)

// Binary serialization for the single-threaded filters. The format is a
// little-endian header (magic, version, geometry, options, count) followed by
// the raw block array. Filters can be built offline and shipped alongside
// the data they summarize — the way storage systems persist SSTable filters.

// The 8- and 16-bit streams carry their geometry's magic (geom8, geom16);
// the value-associating filter's stream carries magicKV.
const (
	magicKV        = 0x4b465156 // "VQFK"
	serialVersion  = 1
	headerBytes    = 4 + 2 + 2 + 8 + 8 + 8 // magic, version, flags, blocks, count, reserved
	flagNoShortcut = 1 << 0
	flagIndepHash  = 1 << 1
)

// ErrBadFormat is returned when deserializing data that is not a filter of
// the expected type and version.
var ErrBadFormat = errors.New("core: malformed filter serialization")

func writeHeader(w io.Writer, magic uint32, nblocks, count uint64, opts Options) error {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint16(hdr[4:], serialVersion)
	var flags uint16
	if opts.NoShortcut {
		flags |= flagNoShortcut
	}
	if opts.IndependentHash {
		flags |= flagIndepHash
	}
	binary.LittleEndian.PutUint16(hdr[6:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], nblocks)
	binary.LittleEndian.PutUint64(hdr[16:], count)
	_, err := w.Write(hdr[:])
	return err
}

// remainingSize returns the number of bytes known to remain in r, or -1
// when r's length cannot be determined cheaply. bytes.Reader, bytes.Buffer
// and strings.Reader report via Len; files and other seekable readers via
// Seek. The hint lets readers reject a forged header whose claimed block
// count exceeds the input before allocating anything for it.
func remainingSize(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case io.Seeker:
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return -1
		}
		return end - cur
	}
	return -1
}

func readHeader(r io.Reader, wantMagic uint32, bytesPerBlock, slotsPerBlock uint64) (nblocks, count uint64, opts Options, err error) {
	var hdr [headerBytes]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, opts, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != wantMagic {
		return 0, 0, opts, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != serialVersion {
		return 0, 0, opts, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:])
	opts.NoShortcut = flags&flagNoShortcut != 0
	opts.IndependentHash = flags&flagIndepHash != 0
	nblocks = binary.LittleEndian.Uint64(hdr[8:])
	count = binary.LittleEndian.Uint64(hdr[16:])
	if nblocks < 2 || nblocks&(nblocks-1) != 0 || nblocks > 1<<40 {
		return 0, 0, opts, fmt.Errorf("%w: block count %d not a power of two >= 2", ErrBadFormat, nblocks)
	}
	// A count no block array of this size could hold is a forged header;
	// reject before any allocation (nblocks ≤ 2^40 and slotsPerBlock ≤ 48, so
	// the product cannot overflow).
	if maxCount := nblocks * slotsPerBlock; count > maxCount {
		return 0, 0, opts, fmt.Errorf("%w: count %d exceeds capacity %d of %d blocks",
			ErrBadFormat, count, maxCount, nblocks)
	}
	// With a known input length, a header claiming more blocks than the
	// remaining bytes can hold is rejected up front (nblocks ≤ 2^40 and
	// bytesPerBlock ≤ 112, so the product cannot overflow).
	if hint := remainingSize(r); hint >= 0 && nblocks*bytesPerBlock > uint64(hint) {
		return 0, 0, opts, fmt.Errorf("%w: header claims %d blocks (%d bytes) but only %d bytes remain",
			ErrBadFormat, nblocks, nblocks*bytesPerBlock, hint)
	}
	return nblocks, count, opts, nil
}

// WriteTo serializes the filter. It implements io.WriterTo.
func (f *plainFilter[B, F, P]) WriteTo(w io.Writer) (int64, error) {
	return f.writeTo(w, f.geo.magic, nil)
}

// writeTo writes the header with magic, then the blocks, each followed by
// its share of side (minifilter.WriteBlocks).
func (f *plainFilter[B, F, P]) writeTo(w io.Writer, magic uint32, side []byte) (int64, error) {
	if err := writeHeader(w, magic, uint64(len(f.blocks)), f.count, f.opts); err != nil {
		return 0, err
	}
	n, err := minifilter.WriteBlocks[B, P](w, f.blocks, false, side)
	return headerBytes + n, err
}

// read deserializes a stream written by writeTo with magic into f, returning
// the side bytes (stride per block). A non-zero wantBlocks is the block
// count the caller's geometry requires. The stream is untrusted: f is
// audited (CheckInvariants) before it is returned.
func (f *plainFilter[B, F, P]) read(r io.Reader, g *geometry, magic uint32, wantBlocks uint64, stride int) ([]byte, error) {
	nblocks, count, opts, err := readHeader(r, magic, uint64(minifilter.BlockBytes+stride), g.slots)
	if err != nil {
		return nil, err
	}
	if wantBlocks != 0 && nblocks != wantBlocks {
		return nil, fmt.Errorf("%w: stream has %d blocks, declared geometry needs %d",
			ErrBadFormat, nblocks, wantBlocks)
	}
	blocks, side, err := minifilter.ReadBlocks[B, P](r, nblocks, stride)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	f.init(0, blocks, opts, g)
	f.count = count
	if err := f.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return side, nil
}

// ReadFilter8 deserializes a Filter8 written by WriteTo.
func ReadFilter8(r io.Reader) (*Filter8, error) {
	return readFilter8(r, 0)
}

// ReadFilter8Sized deserializes a Filter8 whose geometry is known in advance
// (e.g. an elastic-cascade level derived from the cascade config): the
// stream's block count must equal the geometry NewFilter8(wantSlots, ...)
// would build, rejecting inconsistent streams before any block allocation.
func ReadFilter8Sized(r io.Reader, wantSlots uint64) (*Filter8, error) {
	return readFilter8(r, blocksFor(wantSlots, geom8.slots))
}

func readFilter8(r io.Reader, wantBlocks uint64) (*Filter8, error) {
	f := &Filter8{}
	if _, err := f.read(r, &geom8, geom8.magic, wantBlocks, 0); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFilter16 deserializes a Filter16 written by WriteTo.
func ReadFilter16(r io.Reader) (*Filter16, error) {
	return readFilter16(r, 0)
}

// ReadFilter16Sized is ReadFilter8Sized for the 16-bit geometry.
func ReadFilter16Sized(r io.Reader, wantSlots uint64) (*Filter16, error) {
	return readFilter16(r, blocksFor(wantSlots, geom16.slots))
}

func readFilter16(r io.Reader, wantBlocks uint64) (*Filter16, error) {
	f := &Filter16{}
	if _, err := f.read(r, &geom16, geom16.magic, wantBlocks, 0); err != nil {
		return nil, err
	}
	return f, nil
}

// WriteTo serializes the value-associating filter: the standard header,
// then each block's 64 bytes followed by its parallel value bytes. It
// implements io.WriterTo.
func (f *KVFilter8) WriteTo(w io.Writer) (int64, error) {
	return f.writeTo(w, magicKV, f.vals)
}

// ReadKV8 deserializes a KVFilter8 written by WriteTo.
func ReadKV8(r io.Reader) (*KVFilter8, error) {
	f := &KVFilter8{}
	vals, err := f.read(r, &geom8, magicKV, 0, minifilter.B8Slots)
	if err != nil {
		return nil, err
	}
	f.opts, f.vals = Options{}, vals // the KV stream's option flags are unused
	return f, nil
}
