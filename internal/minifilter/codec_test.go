package minifilter

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"vqf/internal/swar"
)

func TestBroadcastMatchesSWAR(t *testing.T) {
	for _, fp := range []uint16{0, 1, 0x7f, 0xab, 0xff, 0x100, 0xbeef, 0xffff} {
		if got, want := Broadcast(byte(fp)), swar.BroadcastByte(byte(fp)); got != want {
			t.Fatalf("Broadcast(byte %#x) = %#x, want %#x", byte(fp), got, want)
		}
		if got, want := Broadcast(fp), swar.BroadcastU16(fp); got != want {
			t.Fatalf("Broadcast(uint16 %#x) = %#x, want %#x", fp, got, want)
		}
	}
}

// fillPlain8 and fillLocked8 build n-fingerprint blocks through the plain and
// the locked mutation paths from the same random sequence, so their logical
// contents agree.
func fillPlain8(b *Block8, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b.Reset()
	for i := 0; i < n; i++ {
		b.Insert(uint(rng.Intn(B8Buckets)), byte(rng.Intn(256)))
	}
}

func fillLocked8(b *Block8, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b.Reset()
	for i := 0; i < n; i++ {
		b.Lock()
		b.InsertLocked(uint(rng.Intn(B8Buckets)), byte(rng.Intn(256)))
		b.Unlock()
	}
}

// TestCodecBlock8Layout pins the stream layout: eight little-endian words in
// field order, the plain form on the wire for both conventions (a full
// locked block gains its implicit top terminator), side bytes after each
// block, and ReadBlocks + ToLocked restoring the locked form exactly.
func TestCodecBlock8Layout(t *testing.T) {
	for _, n := range []int{0, 1, 17, B8Slots} {
		plain, locked := make([]Block8, 2), make([]Block8, 2)
		for i := range plain {
			fillPlain8(&plain[i], n, int64(n+100*i))
			fillLocked8(&locked[i], n, int64(n+100*i))
		}
		side := []byte("abcdefgh")

		var pb, lb bytes.Buffer
		if _, err := WriteBlocks(&pb, plain, false, side); err != nil {
			t.Fatal(err)
		}
		if nw, err := WriteBlocks(&lb, locked, true, side); err != nil || nw != int64(lb.Len()) {
			t.Fatalf("n=%d: locked write: %d bytes reported, %d written, %v", n, nw, lb.Len(), err)
		}
		if !bytes.Equal(pb.Bytes(), lb.Bytes()) {
			t.Fatalf("n=%d: locked and plain blocks with the same contents encode differently", n)
		}
		if pb.Len() != 2*(BlockBytes+4) {
			t.Fatalf("n=%d: stream is %d bytes", n, pb.Len())
		}
		img := pb.Bytes()
		if binary.LittleEndian.Uint64(img[0:]) != plain[0].MetaLo ||
			binary.LittleEndian.Uint64(img[8:]) != plain[0].MetaHi ||
			binary.LittleEndian.Uint64(img[16+8*5:]) != plain[0].Fps[5] ||
			string(img[BlockBytes:BlockBytes+4]) != "abcd" ||
			string(img[2*BlockBytes+4:]) != "efgh" {
			t.Fatalf("n=%d: unexpected stream layout", n)
		}

		got, gotSide, err := ReadBlocks[Block8](bytes.NewReader(img), 2, 4)
		if err != nil || string(gotSide) != string(side) {
			t.Fatalf("n=%d: read back side %q, %v", n, gotSide, err)
		}
		for i := range got {
			if got[i] != plain[i] || got[i].Validate() != nil {
				t.Fatalf("n=%d: block %d did not read back to its plain form", n, i)
			}
		}
		ToLocked(got)
		for i := range got {
			if got[i] != locked[i] {
				t.Fatalf("n=%d: block %d did not convert back to its locked form", n, i)
			}
		}
	}
}

func TestCodecBlock16RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocks := make([]Block16, 2)
	plain, locked := &blocks[0], &blocks[1]
	plain.Reset()
	locked.Reset()
	for i := 0; i < B16Slots; i++ {
		bucket, fp := uint(rng.Intn(B16Buckets)), uint16(rng.Intn(1<<16))
		plain.Insert(bucket, fp)
		locked.Lock()
		locked.InsertLocked(bucket, fp)
		locked.Unlock()
	}
	if *plain == *locked {
		t.Fatal("test setup: a full block's plain and locked forms should differ")
	}
	var pb, lb bytes.Buffer
	if n, err := WriteBlocks(&pb, []Block16{}, false, nil); n != 0 || err != nil {
		t.Fatalf("an empty array wrote %d bytes, %v", n, err)
	}
	WriteBlocks(&pb, blocks[:1], false, nil)
	WriteBlocks(&lb, blocks[1:], true, nil)
	if !bytes.Equal(pb.Bytes(), lb.Bytes()) || binary.LittleEndian.Uint64(pb.Bytes()) != plain.Meta {
		t.Fatal("full Block16 encodes differently in its two forms")
	}
	got, side, err := ReadBlocks[Block16](&lb, 1, 0)
	if err != nil || len(side) != 0 || got[0] != *plain {
		t.Fatalf("read back %d blocks, side %d bytes, %v", len(got), len(side), err)
	}
	ToLocked(got)
	if got[0] != *locked {
		t.Fatal("ToLocked did not restore the locked form")
	}
}

func TestCodecHeldLockFailsWrite(t *testing.T) {
	blocks := make([]Block8, 3)
	for i := range blocks {
		blocks[i].Reset()
	}
	blocks[2].Lock()
	var buf bytes.Buffer
	n, err := WriteBlocks(&buf, blocks, true, nil)
	if err == nil || !strings.Contains(err.Error(), "block 2 is locked") || n != 2*BlockBytes {
		t.Fatalf("write over a held lock: %d bytes, %v", n, err)
	}
	// The plain form has no lock bit: the same words write as a full block.
	if _, err := WriteBlocks(&buf, blocks, false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadBlocksTruncatedAndChunked(t *testing.T) {
	if _, _, err := ReadBlocks[Block8](bytes.NewReader(make([]byte, BlockBytes+10)), 2, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated stream: %v, want io.ErrUnexpectedEOF", err)
	}
	// A forged count far beyond the input fails after the first chunk.
	if _, _, err := ReadBlocks[Block16](bytes.NewReader(nil), 1<<40, 0); err != io.EOF {
		t.Fatalf("empty stream for 2^40 blocks: %v, want io.EOF", err)
	}
	// More than one chunk reads back in order.
	const n = 1<<16 + 3
	blocks := make([]Block16, n)
	for i := range blocks {
		blocks[i].Reset()
		blocks[i].Insert(uint(i%B16Buckets), uint16(i))
	}
	var buf bytes.Buffer
	WriteBlocks(&buf, blocks, false, nil)
	got, _, err := ReadBlocks[Block16](&buf, n, 0)
	if err != nil || len(got) != n || got[n-1] != blocks[n-1] || got[1<<16] != blocks[1<<16] {
		t.Fatalf("chunked read: %d blocks, %v", len(got), err)
	}
}

func TestValidate(t *testing.T) {
	var b Block8
	fillPlain8(&b, 30, 9)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	b.MetaLo ^= 1 << 7
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "terminator bits") {
		t.Fatalf("flipped metadata bit: %v", err)
	}
	var c Block16
	c.Reset()
	c.Insert(3, 0x1234)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Meta |= 1 << 62
	if c.Validate() == nil {
		t.Fatal("extra Block16 terminator passed")
	}
}

// TestValidateImpliesStructure checks the argument that makes the terminator
// count the whole audit: for random metadata with exactly B8Buckets
// (B16Buckets) one bits, the highest one is the final terminator — no bit
// lies above bucket count + occupancy — and the occupancy is at most the
// slot count, so every block operation stays in range.
func TestValidateImpliesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		var b Block8
		for _, p := range rng.Perm(128)[:B8Buckets] {
			if p < 64 {
				b.MetaLo |= 1 << p
			} else {
				b.MetaHi |= 1 << (p - 64)
			}
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		occ := b.Occupancy()
		top := 64 + 63 - bits.LeadingZeros64(b.MetaHi)
		if occ > B8Slots || top != B8Buckets-1+int(occ) {
			t.Fatalf("Block8 %#x/%#x: occupancy %d, top terminator at %d", b.MetaLo, b.MetaHi, occ, top)
		}

		var c Block16
		for _, p := range rng.Perm(64)[:B16Buckets] {
			c.Meta |= 1 << p
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		occ = c.Occupancy()
		if top := 63 - bits.LeadingZeros64(c.Meta); occ > B16Slots || top != B16Buckets-1+int(occ) {
			t.Fatalf("Block16 %#x: occupancy %d, top terminator at %d", c.Meta, occ, top)
		}
	}
}
