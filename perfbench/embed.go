package main

import (
	"fmt"
	"time"

	"vqf"
	"vqf/internal/core"
	"vqf/internal/hashing"
	"vqf/internal/minifilter"
)

// embed-l2: one goroutine on vqf.New with the 16-bit geometry, a table of
// 2^13 blocks (512 KiB, inside the 2 MiB L2) batch-prefilled to 83% load,
// then seeded same-kind groups of 64 single-key calls, each group timed:
// 55% lookups of never-inserted keys, 25% lookups of live keys, 10% inserts
// of fresh keys and 10% removes of the oldest live keys. The table is built
// and driven through the same groups embedRepeats times (see libTimes);
// each set-up is timed. A table larger than the last-level cache was not
// steady on a shared host: its DRAM latency moved between about 150 and
// 360 ns per lookup with the neighbours' load, for minutes at a time.

const groupSize = 64

// embedGroupsPerSec fixes the amount of work per nominal second (about one
// second of work per second on a 2-vCPU Xeon); the traced run replays every
// group through four layers, so it runs fewer groups per second.
const (
	embedGroupsPerSec       = 200_000
	embedTracedGroupsPerSec = 20_000
	embedLoad               = 0.83 // at 0.85 some seeded batch prefills refuse a key
	embedRepeats            = 50
	embedFPR                = 1e-4 // selects the 16-bit geometry
)

// embedSize fixes a run: the table size, and how many times it is built,
// prefilled and driven through the same groups.
type embedSize struct {
	logBlocks uint
	groups    int // per repeat
	repeats   int
}

func embedSizing(cfg config) embedSize {
	switch {
	case cfg.tiny:
		return embedSize{logBlocks: 10, groups: 1500, repeats: 2}
	case cfg.trace:
		return embedSize{logBlocks: 13, groups: cfg.seconds * embedTracedGroupsPerSec, repeats: 1}
	}
	return embedSize{logBlocks: 13, groups: cfg.seconds * embedGroupsPerSec / embedRepeats, repeats: embedRepeats}
}

// pickKind draws a group kind with the 55/25/10/10 mix. Write groups
// alternate between insert and remove, so the table's load stays within
// one group of the prefill: a random walk of inserts against removes moved
// it by several percent over a run.
func (s *embedState) pickKind() uint8 {
	switch x := s.r.intn(100); {
	case x < 55:
		return opNeg
	case x < 80:
		return opPos
	}
	s.wrote++
	if s.wrote%2 == 1 {
		return opInsert
	}
	return opRemove
}

// prefillHashes batch-inserts the hashes of keys [0, n) of s through add,
// in chunks, and returns how many were acknowledged.
func prefillHashes(add func([]uint64) int, s keyStream, fseed, n uint64) uint64 {
	const chunk = 1 << 22
	buf := make([]uint64, 0, min(chunk, n))
	var acked uint64
	for i := uint64(0); i < n; i++ {
		buf = append(buf, hashing.HashUint64(s.key(i), fseed))
		if len(buf) == chunk || i == n-1 {
			acked += uint64(add(buf))
			buf = buf[:0]
		}
	}
	return acked
}

// embedState is the live window of the key stream: indices [lo, hi) are
// stored, except those whose insert was refused.
type embedState struct {
	live, neg keyStream
	lo, hi    uint64
	nextNeg   uint64
	wrote     uint64 // write groups drawn
	refused   map[uint64]bool
	r         *rng
}

// fill writes the group's keys for kind into keys and their stream indices
// into idx.
func (s *embedState) fill(kind uint8, keys, idx []uint64) {
	for i := range keys {
		switch kind {
		case opNeg:
			idx[i] = s.nextNeg
			s.nextNeg++
			keys[i] = s.neg.key(idx[i])
			continue
		case opPos:
			idx[i] = s.lo + s.r.intn(s.hi-s.lo)
			for s.refused[idx[i]] {
				idx[i] = s.lo + s.r.intn(s.hi-s.lo)
			}
		case opInsert:
			idx[i] = s.hi
			s.hi++
		case opRemove:
			for s.refused[s.lo] {
				delete(s.refused, s.lo)
				s.lo++
			}
			idx[i] = s.lo
			s.lo++
		}
		keys[i] = s.live.key(idx[i])
	}
}

// tally counts one group's outcomes.
type tally struct {
	fps, negs, posMiss, inserted, refused, removed, removeMiss uint64
}

func runEmbed(cfg config) (*outcome, error) {
	sz := embedSizing(cfg)
	o := newOutcome()
	fseed := fmix64(cfg.seed ^ 0x5eed)
	capacity := uint64(minifilter.B16Slots) << sz.logBlocks
	n := uint64(float64(capacity) * 0.9 * 0.95) // vqf.New sizes n/0.9 slots: 2^logBlocks blocks
	prefill := uint64(embedLoad * float64(capacity))

	var f *vqf.Filter
	var c *core.Filter16
	var kern *kernel
	var tr *tracer
	var coreBefore vqf.OpStats
	var lat vqf.LatencySnapshot
	var setupS []float64
	var t tally // summed over repeats
	var lt libTimes
	keys := make([]uint64, groupSize)
	idx := make([]uint64, groupSize)
	hs := make([]uint64, groupSize)
	ok := make([]bool, groupSize)
	coreOK := make([]bool, groupSize)
	var kind uint8
	ladder := []rung{
		{lFacade, func() { facadeOps(f, kind, keys, ok) }},
		{lCore, func() { coreOps(c, kind, hs, coreOK) }},
		{lKernel, func() { kern.run(kind, hs) }},
	}
	for r := 0; r < sz.repeats; r++ {
		f = nil
		freeMemory()
		live := newStream(cfg.seed, streamLive)
		t0 := time.Now()
		f = vqf.New(n, vqf.WithFalsePositiveRate(embedFPR), vqf.WithSeed(fseed))
		acked := prefillHashes(f.AddHashBatch, live, fseed, prefill)
		setupS = append(setupS, time.Since(t0).Seconds())
		if acked != prefill {
			return nil, fmt.Errorf("prefill acknowledged %d of %d keys", acked, prefill)
		}
		if f.Capacity() != capacity {
			return nil, fmt.Errorf("filter capacity %d, want %d", f.Capacity(), capacity)
		}
		// Every repeat runs the same ops on the same prefill, except that
		// it looks up never-inserted keys of its own.
		st := &embedState{live: live, neg: newStream(cfg.seed, streamNeg), hi: prefill,
			nextNeg: uint64(r) << 40, refused: map[uint64]bool{}, r: newRNG(cfg.seed, 1)}
		if cfg.trace {
			c = core.NewFilter16(uint64(float64(n)/0.9)+1, core.Options{})
			if acked := prefillHashes(c.InsertBatch, live, fseed, prefill); acked != prefill || c.Capacity() != capacity {
				return nil, fmt.Errorf("core replica prefill acknowledged %d of %d keys", acked, prefill)
			}
			kern = newKernel(true, embedLoad, cfg.seed)
			tr = newTracer(time.Now(), 0, sz.groups*5)
		}
		coreBefore = f.Stats()
		lt.repeat()

		var rt tally
		for g := 0; g < sz.groups; g++ {
			kind = st.pickKind()
			st.fill(kind, keys, idx)
			if tr == nil {
				t0 := time.Now()
				facadeOps(f, kind, keys, ok)
				lt.add(kind, groupSize, float64(time.Since(t0)), kind == opNeg || kind == opPos)
			} else {
				s := tr.beginStep(kind, groupSize)
				sp := tr.begin(s, lHash)
				for i, k := range keys {
					hs[i] = hashing.HashUint64(k, fseed)
				}
				tr.end(sp)
				tr.climb(s, ladder)
				tr.end(s)
				kern.rebalance()
				for i := range ok {
					if ok[i] != coreOK[i] {
						o.gate(false, "core replica answered %v, facade %v (group %d, %s)", coreOK[i], ok[i], g, opNames[kind])
						break
					}
				}
			}
			rt.add(kind, ok, idx, st)
		}
		o.attempted += prefill + uint64(sz.groups)*groupSize
		lat = f.Latency() // before the sweep, whose lookups are not part of the mix

		// Correctness gates: no false negatives (the positive groups above
		// and a sweep over sampled live keys), exact count.
		o.gate(rt.posMiss == 0, "%d false negatives on live keys", rt.posMiss)
		o.gate(rt.removeMiss == 0, "%d removes of live keys found nothing", rt.removeMiss)
		if miss := embedSweep(f, st); miss > 0 {
			o.gate(false, "sweep found %d live keys absent", miss)
		}
		want := prefill + rt.inserted - rt.removed
		o.gate(f.Count() == want, "Count %d, want %d acknowledged inserts minus removes", f.Count(), want)
		t.sum(rt)
	}
	o.set("setup_s", median(setupS))
	o.failed = t.refused
	fprGate(o, t.fps, t.negs, f.FalsePositiveRate())

	if tr == nil {
		if err := o.setTimes(&lt); err != nil {
			return nil, err
		}
		o.set("fpr", ratio(float64(t.fps), float64(t.negs)))
		o.set("bits_per_item", ratio(float64(f.SizeBytes()*8), float64(f.Count())))
		o.set("success_rate", o.successRate())
		return o, nil
	}

	steps := steps(tr)
	o.set("facade.hash_ns", median(perKey(steps, lHash, opNeg, opPos, opInsert, opRemove)))
	o.set("facade.self_insert_ns", median(selfPerKey(steps, lFacade, lCore, opInsert)))
	o.set("facade.self_lookup_ns", median(selfPerKey(steps, lFacade, lCore, opNeg, opPos)))
	o.set("facade.self_remove_ns", median(selfPerKey(steps, lFacade, lCore, opRemove)))
	o.set("facade.sampled_frac", ratio(float64(lat.Insert.Count+lat.Lookup.Count+lat.Remove.Count), float64(sz.groups*groupSize)))
	reportCoreTimes(o, steps)
	reportKernel(o, steps)
	ops := f.Stats().Sub(coreBefore)
	snap := f.Snapshot()
	o.set("core.shortcut_frac", ratio(float64(ops.ShortcutInserts), float64(ops.Inserts)))
	o.set("core.insert_fail_frac", ratio(float64(ops.InsertFailures), float64(ops.Inserts+ops.InsertFailures)))
	o.set("core.full_block_frac", ratio(float64(snap.Occupancy.FullBlocks), float64(snap.Occupancy.Blocks)))
	o.set("core.load_factor", snap.LoadFactor)
	o.set("core.shard_imbalance", 1) // one unsharded table
	o.set("trace.overhead_frac", overheadFrac(steps))
	return o, writeSpans(cfg.traceDir, cfg.workload, cfg.seed, tr)
}

// facadeOps runs one group through the public single-key calls; ok[i]
// reports each call's answer (found, stored, removed).
func facadeOps(f *vqf.Filter, kind uint8, keys []uint64, ok []bool) {
	switch kind {
	case opInsert:
		for i, k := range keys {
			ok[i] = f.AddUint64(k) == nil
		}
	case opRemove:
		for i, k := range keys {
			ok[i] = f.RemoveUint64(k)
		}
	default:
		for i, k := range keys {
			ok[i] = f.ContainsUint64(k)
		}
	}
}

// coreOps runs the same group on the core replica with the facade's hashes.
func coreOps(c *core.Filter16, kind uint8, hs []uint64, ok []bool) {
	switch kind {
	case opInsert:
		for i, h := range hs {
			ok[i] = c.Insert(h)
		}
	case opRemove:
		for i, h := range hs {
			ok[i] = c.Remove(h)
		}
	default:
		for i, h := range hs {
			ok[i] = c.Contains(h)
		}
	}
}

func (t *tally) sum(u tally) {
	t.fps += u.fps
	t.negs += u.negs
	t.posMiss += u.posMiss
	t.inserted += u.inserted
	t.refused += u.refused
	t.removed += u.removed
	t.removeMiss += u.removeMiss
}

func (t *tally) add(kind uint8, ok []bool, idx []uint64, st *embedState) {
	for i, y := range ok {
		switch kind {
		case opNeg:
			t.negs++
			if y {
				t.fps++
			}
		case opPos:
			if !y {
				t.posMiss++
			}
		case opInsert:
			if y {
				t.inserted++
			} else {
				t.refused++
				st.refused[idx[i]] = true
			}
		case opRemove:
			if y {
				t.removed++
			} else {
				t.removeMiss++
			}
		}
	}
}

// embedSweep looks up up to 65536 live keys spread over the window and
// returns how many were absent.
func embedSweep(f *vqf.Filter, st *embedState) int {
	span := st.hi - st.lo
	step := span/65536 + 1
	miss := 0
	for i := st.lo; i < st.hi; i += step {
		if !st.refused[i] && !f.ContainsUint64(st.live.key(i)) {
			miss++
		}
	}
	return miss
}
