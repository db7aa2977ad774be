package main

import (
	"vqf/internal/minifilter"
	"vqf/internal/swar"
)

// kernelBlocks is the kernel layer's block array size: 1024 blocks, 64 KiB,
// held in L2, so the kernel spans time the block methods and not memory.
const kernelBlocks = 1024

// kernel replays a step's keys against a cached array of mini-filter
// blocks through the exported Block8/Block16 methods, at a fixed target
// occupancy. A key maps to one block with the core's bit layout (no second
// choice: that is the core's job). The array is a sliding window: inserts
// append to a FIFO, removes take its oldest entries, and between steps
// (outside any span) rebalance restores the target occupancy with filler
// keys, so every step sees the workload's load.
type kernel struct {
	wide   bool // Block16 (16-bit fingerprints) rather than Block8
	b8     []minifilter.Block8
	b16    []minifilter.Block16
	fifo   []uint64 // hashes stored, oldest first, from head
	head   int
	target int
	filler keyStream
	nfill  uint64
	sink   uint64
}

func newKernel(wide bool, load float64, seed uint64) *kernel {
	k := &kernel{wide: wide, filler: newStream(seed, streamFill)}
	slots := minifilter.B8Slots
	if wide {
		k.b16 = make([]minifilter.Block16, kernelBlocks)
		for i := range k.b16 {
			k.b16[i].Reset()
		}
		slots = minifilter.B16Slots
	} else {
		k.b8 = make([]minifilter.Block8, kernelBlocks)
		for i := range k.b8 {
			k.b8[i].Reset()
		}
	}
	k.target = int(load * float64(slots*kernelBlocks))
	k.rebalance()
	return k
}

func (k *kernel) live() int { return len(k.fifo) - k.head }

// rebalance inserts filler keys or drops the oldest until the array holds
// the target count.
func (k *kernel) rebalance() {
	for k.live() > k.target {
		k.removeOne()
	}
	for k.live() < k.target {
		k.nfill++
		k.insertOne(k.filler.key(k.nfill))
	}
	if k.head > len(k.fifo)/2 && k.head > 4096 {
		k.fifo = append(k.fifo[:0], k.fifo[k.head:]...)
		k.head = 0
	}
}

func (k *kernel) insertOne(h uint64) bool {
	var ok bool
	if k.wide {
		bucket := uint(uint32(h&0xffff) * minifilter.B16Buckets >> 16)
		ok = k.b16[(h>>32)&(kernelBlocks-1)].Insert(bucket, uint16(h>>16))
	} else {
		bucket := uint(uint32(h&0xffff) * minifilter.B8Buckets >> 16)
		ok = k.b8[(h>>24)&(kernelBlocks-1)].Insert(bucket, byte(h>>16))
	}
	if ok {
		k.fifo = append(k.fifo, h)
	}
	return ok
}

func (k *kernel) removeOne() bool {
	if k.live() == 0 {
		return false
	}
	h := k.fifo[k.head]
	k.head++
	if k.wide {
		bucket := uint(uint32(h&0xffff) * minifilter.B16Buckets >> 16)
		return k.b16[(h>>32)&(kernelBlocks-1)].RemoveB(bucket, swar.BroadcastU16(uint16(h>>16)))
	}
	bucket := uint(uint32(h&0xffff) * minifilter.B8Buckets >> 16)
	return k.b8[(h>>24)&(kernelBlocks-1)].RemoveB(bucket, swar.BroadcastByte(byte(h>>16)))
}

// probe runs Probe for every hash.
func (k *kernel) probe(hs []uint64) {
	var acc uint64
	if k.wide {
		for _, h := range hs {
			bucket := uint(uint32(h&0xffff) * minifilter.B16Buckets >> 16)
			acc += k.b16[(h>>32)&(kernelBlocks-1)].Probe(bucket, swar.BroadcastU16(uint16(h>>16)))
		}
	} else {
		for _, h := range hs {
			bucket := uint(uint32(h&0xffff) * minifilter.B8Buckets >> 16)
			acc += k.b8[(h>>24)&(kernelBlocks-1)].Probe(bucket, swar.BroadcastByte(byte(h>>16)))
		}
	}
	k.sink += acc
}

// insert runs Insert for every hash (a full block rejects it).
func (k *kernel) insert(hs []uint64) {
	for _, h := range hs {
		k.insertOne(h)
	}
}

// remove runs RemoveB on as many of the oldest stored hashes as hs holds.
func (k *kernel) remove(hs []uint64) {
	for range hs {
		k.removeOne()
	}
}

// run replays one step of the given kind.
func (k *kernel) run(kind uint8, hs []uint64) {
	switch kind {
	case opInsert:
		k.insert(hs)
	case opRemove:
		k.remove(hs)
	default:
		k.probe(hs)
	}
}
