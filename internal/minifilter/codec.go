package minifilter

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Fingerprint is a block geometry's fingerprint lane type: byte for
// Block8, uint16 for Block16.
type Fingerprint interface{ ~uint8 | ~uint16 }

// Broadcast replicates fp into every lane of a word: the pre-broadcast form
// Probe, RemoveB, ContainsLockedB and ProbeOptimistic take.
func Broadcast[F Fingerprint](fp F) uint64 { return uint64(fp) * (^uint64(0) / uint64(^F(0))) }

// Block is the block method set code generic over the geometry uses:
// *Block8 with F = byte, *Block16 with F = uint16. Only this package's
// blocks implement it.
type Block[B any, F Fingerprint] interface {
	codecBlock[B]
	Reset()
	Occupancy() uint
	Probe(bucket uint, bcast uint64) uint64
	Iterate(yield func(bucket uint, fp F) bool) bool
	Validate() error
	Lock()
	Unlock()
	UnlockBump(seq *atomic.Uint64)
	OccupancyLocked() uint
	InsertLocked(bucket uint, fp F) bool
	RemoveLocked(bucket uint, fp F) bool
	ContainsLockedB(bucket uint, bcast uint64) bool
	ProbeOptimistic(seq *atomic.Uint64, bucket uint, bcast uint64) (mask uint64, retries uint, fellBack bool)
	OccupancyOptimisticCounted(seq *atomic.Uint64) (occ uint, retries uint, ok bool)
	SnapshotIterate(seq *atomic.Uint64, yield func(bucket uint, fp F) bool) bool
}

// codecBlock is the part of Block the stream codec needs: the conversions
// between the locked-mode and the plain metadata form.
type codecBlock[B any] interface {
	*B
	toPlain() bool
	toLocked()
}

// Stream layout. A block serializes as its 64-byte cache line: its eight
// 64-bit words in field order (Block8: MetaLo, MetaHi, Fps; Block16: Meta,
// Fps), each little-endian. Fingerprint lanes are little-endian within their
// words, so the stream holds the lanes in slot order. Streams
// always carry the plain metadata form, whose top bit is set exactly when
// the block is full; the locked form (locked.go) keeps that bit for the lock
// and a full block's final terminator implicit, so locked-mode blocks
// convert on the way out (toPlain) and back in (ToLocked).

// BlockBytes is the serialized size of one block.
const BlockBytes = 64

// words views a block as its eight words; locked.go asserts at compile time
// that both blocks are exactly 64 bytes with word-aligned fields.
func words[B any](b *B) *[8]uint64 { return (*[8]uint64)(unsafe.Pointer(b)) }

// toPlain converts a copy of a quiescent locked-mode block to the plain
// form, reporting false if a writer holds its lock bit.
func (b *Block8) toPlain() bool {
	if b.MetaHi&lockBit != 0 {
		return false
	}
	if b.OccupancyLocked() == B8Slots {
		b.MetaHi |= lockBit // full: the top bit is the 80th terminator
	}
	return true
}

func (b *Block16) toPlain() bool {
	if b.Meta&lockBit != 0 {
		return false
	}
	if b.OccupancyLocked() == B16Slots {
		b.Meta |= lockBit // full: the top bit is the 36th terminator
	}
	return true
}

// toLocked converts a plain-form block to the locked form: the plain top
// bit is set exactly when the block is full, and clearing it
// unconditionally yields the stored locked form.
func (b *Block8) toLocked()  { b.MetaHi &^= lockBit }
func (b *Block16) toLocked() { b.Meta &^= lockBit }

// WriteBlocks writes blocks to w in the stream layout, each block followed
// by its len(side)/len(blocks) bytes of side (the value-associating
// filter's per-slot values; nil otherwise). With locked set the blocks are
// in the locked-mode form and go out in the plain form; the caller must
// keep writers out, and a held lock bit fails the write.
func WriteBlocks[B any, P codecBlock[B]](w io.Writer, blocks []B, locked bool, side []byte) (int64, error) {
	stride := 0
	if len(blocks) > 0 {
		stride = len(side) / len(blocks)
	}
	buf := make([]byte, BlockBytes+stride)
	var n int64
	for i := range blocks {
		b := blocks[i]
		if locked && !P(&b).toPlain() {
			return n, fmt.Errorf("minifilter: block %d is locked; serialization requires a quiescent filter", i)
		}
		for j, word := range words(&b) {
			binary.LittleEndian.PutUint64(buf[8*j:], word)
		}
		copy(buf[BlockBytes:], side[i*stride:])
		m, err := w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadBlocks reads n blocks in the stream layout, each followed by stride
// bytes of side data, returned in side. The arrays grow in chunks while
// reading, so a forged block count fails on truncated input instead of
// allocating the claimed size up front. The blocks come back in the plain
// form and unaudited: the bytes are untrusted, so callers Validate them
// before use (and convert with ToLocked after that).
func ReadBlocks[B any, P codecBlock[B]](r io.Reader, n uint64, stride int) (blocks []B, side []byte, err error) {
	const chunk = 1 << 16
	buf := make([]byte, BlockBytes+stride)
	for uint64(len(blocks)) < n {
		first := len(blocks)
		k := min(n-uint64(first), chunk)
		blocks = append(blocks, make([]B, k)...)
		side = append(side, make([]byte, int(k)*stride)...)
		for i := first; i < len(blocks); i++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, nil, err
			}
			w := words(&blocks[i])
			for j := range w {
				w[j] = binary.LittleEndian.Uint64(buf[8*j:])
			}
			copy(side[i*stride:], buf[BlockBytes:])
		}
	}
	return blocks, side, nil
}

// ToLocked converts audited plain-form blocks to the locked form in place.
func ToLocked[B any, P codecBlock[B]](blocks []B) {
	for i := range blocks {
		P(&blocks[i]).toLocked()
	}
}

// Validate audits a plain-form block read from untrusted bytes: its
// metadata must hold exactly B8Buckets terminators. That is the whole
// structural invariant — with exactly 80 ones among 128 bits the highest
// one is the final terminator, nothing lies above it, and the occupancy it
// implies is at most B8Slots — and every block operation relies on it.
func (b *Block8) Validate() error {
	if ones := bits.OnesCount64(b.MetaLo) + bits.OnesCount64(b.MetaHi); ones != B8Buckets {
		return fmt.Errorf("%d terminator bits, want %d", ones, B8Buckets)
	}
	return nil
}

// Validate audits a plain-form Block16: exactly B16Buckets terminators; see
// Block8.Validate.
func (b *Block16) Validate() error {
	if ones := bits.OnesCount64(b.Meta); ones != B16Buckets {
		return fmt.Errorf("%d terminator bits, want %d", ones, B16Buckets)
	}
	return nil
}
