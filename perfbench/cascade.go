package main

import (
	"fmt"
	"math/bits"
	"time"

	"vqf"
	"vqf/internal/core"
	"vqf/internal/elastic"
)

// cascade-churn: repeated epochs, each one LSM ingest filter's lifetime. An
// epoch is a fresh sequential vqf.NewElastic at a small initial capacity
// with automatic compaction and immediate automatic freezing, so growth,
// compaction, freeze and thaw all run inline at points the key stream
// fixes. The epoch ingests 2^16 pre-hashed keys in AddHashBatch flushes,
// then retires the oldest 75% with RemoveHashBatch. Between batches a fixed
// number of ContainsHash point lookups runs in timed groups of 64: 90%
// never-inserted keys, 10% live keys skewed toward recent flushes. Every
// epoch runs the same sequence of batch and group kinds on its own keys, so
// each timed unit is repeated once per epoch and the fastest repeat is kept
// (see libTimes). At 2^16 keys the cascade stays well within the 2 MiB L2;
// at 2^19 its lookups reached into the last-level cache the host's other
// tenants share, and epoch medians spread 2x within one run.

const (
	cascadeEpochsPerSec       = 6 // measured epochs per nominal second (2-vCPU Xeon)
	cascadeTracedEpochsPerSec = 2
	cascadeWarmups            = 3  // unmeasured warm-up epochs
	cascadeSetupFlushes       = 16 // an epoch's set-up: construction and its first flushes
	cascadeInitialCap         = 1 << 11
	cascadeLookupGroups       = 32 // lookup groups between consecutive batches
	cascadeSweep              = 4096
)

// cascadeFPR is the facade's default false-positive budget (the 8-bit
// geometry's analytic rate), which NewElastic uses when none is given.
const cascadeFPR = 2.0 * 48 / 80 / 256

type cascadeSize struct {
	epochKeys, flush uint64
	initialCap       uint64
	epochs, warmups  int
}

func cascadeSizing(cfg config) cascadeSize {
	sz := cascadeSize{epochKeys: 1 << 16, flush: 512, initialCap: cascadeInitialCap,
		epochs: cfg.seconds * cascadeEpochsPerSec, warmups: cascadeWarmups}
	switch {
	case cfg.tiny:
		sz = cascadeSize{epochKeys: 1 << 14, flush: 512, initialCap: 256, epochs: 3, warmups: 1}
	case cfg.trace:
		sz.epochs, sz.warmups = cfg.seconds*cascadeTracedEpochsPerSec, 1
	}
	return sz
}

func cascadeOptions(sz cascadeSize) []vqf.Option {
	return []vqf.Option{vqf.WithInitialCapacity(sz.initialCap), vqf.WithAutoCompaction(3, 0), vqf.WithAutoFreeze(0, 0)}
}

// cascadeReplica builds the internal/elastic cascade the facade options
// above describe, the way vqf.NewElastic translates them.
func cascadeReplica(sz cascadeSize) (*elastic.Filter, error) {
	ec := elastic.Config{TargetFPR: cascadeFPR, CompactMinLevels: 3, AutoFreeze: true}
	if err := ec.Validate(); err != nil {
		return nil, err
	}
	ec.InitialSlots = uint64(float64(sz.initialCap) / ec.FillThreshold)
	return elastic.New(ec)
}

// cascadeRun is the state of one cascade-churn run.
type cascadeRun struct {
	cfg   config
	sz    cascadeSize
	o     *outcome
	live  keyStream
	neg   keyStream
	r     *rng
	lt    libTimes
	nextN uint64

	// Per-epoch filters; replica layers are nil on untraced runs.
	e    *vqf.Elastic
	ef   *elastic.Filter
	c    *core.Filter16
	kern *kernel
	tr   *tracer

	hs, lk      []uint64
	ok, okRep   []bool
	fps, negs   uint64
	posMiss     uint64
	lookups     uint64 // measured lookups
	issued      uint64 // every key op of the run, warm-up epochs included
	swept       uint64 // measured sweep lookups
	sampled     uint64 // of those, calls the telemetry gate timed
	bitsPerItem []float64
	setupS      []float64 // every epoch's set-up time, warm-ups included

	// Traced-run counters, summed over measured epochs.
	probesNeg, probesPos, posKeys float64
	samples                       cascadeSamples
	events                        eventTotals
	lastSeq                       uint64 // newest event of the epoch's ring already counted

	// The traced run's ladders and the step state they read and write.
	batchLadder, lookupLadder []rung
	kind                      uint8
	got, rep                  int
	ops                       struct{ inserts, shortcut, failures uint64 }
}

// cascadeSamples are structural readings taken after every batch call,
// outside the timed regions; each is followed by the same number of
// lookups, so their mean is the lookup-weighted mean.
type cascadeSamples struct {
	n, levels, fuseLevels, fuseBytes, load, fullBlocks float64
}

type eventTotals struct {
	grows, compactions, merged, freezes, thaws uint64
	structNs, structMaxNs                      float64
}

func runCascade(cfg config) (*outcome, error) {
	sz := cascadeSizing(cfg)
	cr := &cascadeRun{cfg: cfg, sz: sz, o: newOutcome(),
		live: newStream(cfg.seed, streamLive), neg: newStream(cfg.seed, streamNeg),
		hs: make([]uint64, sz.flush), lk: make([]uint64, groupSize), ok: make([]bool, groupSize), okRep: make([]bool, groupSize)}
	for i := 0; i < sz.warmups; i++ {
		if err := cr.epoch(uint64(i), false); err != nil {
			return nil, err
		}
	}
	cr.fps, cr.negs, cr.lookups, cr.bitsPerItem = 0, 0, 0, nil
	if cfg.trace {
		cr.kern = newKernel(true, 0.85, cfg.seed)
		cr.tr = newTracer(time.Now(), 0, sz.epochs*int(sz.epochKeys*7/4/sz.flush)*(cascadeLookupGroups+1)*5)
		cr.buildLadders()
	}
	for i := 0; i < sz.epochs; i++ {
		if err := cr.epoch(uint64(sz.warmups+i), true); err != nil {
			return nil, err
		}
	}
	o := cr.o
	o.attempted = cr.issued
	o.gate(cr.posMiss == 0, "%d false negatives on live keys", cr.posMiss)
	fprGate(o, cr.fps, cr.negs, cascadeFPR)
	fpr := ratio(float64(cr.fps), float64(cr.negs))
	if cr.tr == nil {
		o.set("setup_s", median(cr.setupS))
		if err := o.setTimes(&cr.lt); err != nil {
			return nil, err
		}
		o.set("fpr", fpr)
		o.set("bits_per_item", median(cr.bitsPerItem))
		o.set("success_rate", o.successRate())
		return o, nil
	}
	st := steps(cr.tr)
	o.set("elastic.lookup_neg_ns", median(perKey(st, lElastic, opNeg)))
	o.set("elastic.lookup_pos_ns", median(perKey(st, lElastic, opPos)))
	o.set("elastic.insert_ns", median(perKey(st, lElastic, opInsert)))
	o.set("elastic.remove_ns", median(perKey(st, lElastic, opRemove)))
	sm := cr.samples
	o.set("elastic.levels_mean", ratio(sm.levels, sm.n))
	o.set("elastic.fuse_levels_mean", ratio(sm.fuseLevels, sm.n))
	o.set("elastic.fuse_bytes_frac", ratio(sm.fuseBytes, sm.n))
	o.set("elastic.levels_probed_neg", ratio(cr.probesNeg, float64(cr.negs)))
	o.set("elastic.levels_probed_pos", ratio(cr.probesPos, cr.posKeys))
	ev := cr.events
	o.set("elastic.grows", float64(ev.grows))
	o.set("elastic.compactions", float64(ev.compactions))
	o.set("elastic.levels_merged", float64(ev.merged))
	o.set("elastic.freezes", float64(ev.freezes))
	o.set("elastic.thaws", float64(ev.thaws))
	o.set("elastic.thaw_per_freeze", ratio(float64(ev.thaws), float64(ev.freezes)))
	o.set("elastic.struct_ms_total", ev.structNs/1e6)
	o.set("elastic.struct_ms_max", ev.structMaxNs/1e6)
	o.set("elastic.fpr_budget_used", fpr/cascadeFPR)
	o.set("core.load_factor", ratio(sm.load, sm.n))
	o.set("core.full_block_frac", ratio(sm.fullBlocks, sm.n))
	o.set("core.shortcut_frac", ratio(float64(cr.ops.shortcut), float64(cr.ops.inserts)))
	o.set("core.insert_fail_frac", ratio(float64(cr.ops.failures), float64(cr.ops.inserts+cr.ops.failures)))
	o.set("core.shard_imbalance", 1) // one unsharded cascade
	o.set("facade.self_insert_ns", median(selfPerKey(st, lFacade, lElastic, opInsert)))
	o.set("facade.self_lookup_ns", median(selfPerKey(st, lFacade, lElastic, opNeg, opPos)))
	o.set("facade.self_remove_ns", median(selfPerKey(st, lFacade, lElastic, opRemove)))
	o.set("facade.sampled_frac", ratio(float64(cr.sampled), float64(cr.lookups+cr.swept)))
	reportCoreTimes(o, st)
	reportKernel(o, st)
	o.set("trace.overhead_frac", overheadFrac(st))
	return o, writeSpans(cfg.traceDir, cfg.workload, cfg.seed, cr.tr)
}

// epoch runs one ingest-and-retire lifetime over live-stream keys
// [n·epochKeys, (n+1)·epochKeys). measured epochs record timings and, on
// traced runs, replay every step down the ladder.
func (cr *cascadeRun) epoch(n uint64, measured bool) error {
	sz := cr.sz
	t0 := time.Now()
	cr.e = vqf.NewElastic(append(cascadeOptions(sz), vqf.WithSeed(cr.cfg.seed))...)
	setup := time.Since(t0)
	cr.r = newRNG(cr.cfg.seed, 2) // every epoch runs the same sequence of op kinds
	if measured {
		cr.lt.repeat()
	}
	cr.lastSeq = 0
	traced := measured && cr.tr != nil
	if traced {
		ef, err := cascadeReplica(sz)
		if err != nil {
			return err
		}
		cr.ef = ef
		cr.c = core.NewFilter16(uint64(float64(sz.epochKeys)/0.85), core.Options{})
	}
	base := n * sz.epochKeys
	batches := sz.epochKeys / sz.flush
	retire := batches * 3 / 4
	for b := uint64(0); b < batches+retire; b++ {
		kind, first := opInsert, base+b*sz.flush
		if b >= batches {
			kind, first = opRemove, base+(b-batches)*sz.flush
		}
		for i := range cr.hs {
			cr.hs[i] = cr.live.key(first + uint64(i))
		}
		dt := cr.batch(kind, measured, traced)
		if b < cascadeSetupFlushes {
			setup += dt
		}
		// Live flushes after this batch: [lo, hi) in flush units.
		lo, hi := uint64(0), min(b+1, batches)
		if b >= batches {
			lo = b - batches + 1
		}
		if traced {
			if err := cr.drainEvents(); err != nil {
				return err
			}
			cr.sample()
		}
		for g := 0; g < cascadeLookupGroups; g++ {
			cr.lookupGroup(base, lo, hi, measured, traced)
		}
	}
	if !traced {
		cr.setupS = append(cr.setupS, setup.Seconds())
	}
	return cr.endEpoch(base+retire*sz.flush, base+batches*sz.flush, measured, traced)
}

// batch runs one AddHashBatch or RemoveHashBatch flush of cr.hs and
// returns how long the facade call took (0 on traced runs).
func (cr *cascadeRun) batch(kind uint8, measured, traced bool) time.Duration {
	var got int
	var dt time.Duration
	if traced {
		cr.kind = kind
		s := cr.tr.beginStep(kind, len(cr.hs))
		cr.tr.climb(s, cr.batchLadder)
		cr.tr.end(s)
		cr.kern.rebalance()
		got = cr.got
		cr.o.gate(cr.rep == got, "elastic replica %s %d of %d, facade %d", opNames[kind], cr.rep, len(cr.hs), got)
	} else {
		t0 := time.Now()
		got = cr.facadeBatch(kind)
		dt = time.Since(t0)
	}
	if measured && !traced {
		cr.lt.add(kind, len(cr.hs), float64(dt), false)
	}
	cr.issued += uint64(len(cr.hs))
	short := uint64(len(cr.hs) - got)
	if kind == opInsert {
		cr.o.failed += short // an unacknowledged insert is a failed operation
	} else {
		// Every key removed was inserted and acknowledged in this epoch.
		cr.o.gate(short == 0, "RemoveHashBatch found %d of %d acknowledged keys", got, len(cr.hs))
	}
	return dt
}

func (cr *cascadeRun) facadeBatch(kind uint8) int {
	if kind == opInsert {
		return cr.e.AddHashBatch(cr.hs)
	}
	return cr.e.RemoveHashBatch(cr.hs)
}

// lookupGroup runs 64 ContainsHash calls of one kind: never-inserted keys,
// or live keys from flushes [lo, hi) skewed toward the newest.
func (cr *cascadeRun) lookupGroup(base, lo, hi uint64, measured, traced bool) {
	kind := opNeg
	if cr.r.intn(10) == 0 {
		kind = opPos
	}
	for i := range cr.lk {
		if kind == opNeg {
			cr.nextN++
			cr.lk[i] = cr.neg.key(cr.nextN)
			continue
		}
		back := uint64(bits.TrailingZeros64(cr.r.next() | 1<<40)) // P(back=k) = 2^-(k+1)
		f := hi - 1 - min(back, hi-1-lo)
		cr.lk[i] = cr.live.key(base + f*cr.sz.flush + cr.r.intn(cr.sz.flush))
	}
	var before uint64
	if traced {
		before = cr.e.Stats().Lookups
		s := cr.tr.beginStep(kind, groupSize)
		cr.tr.climb(s, cr.lookupLadder)
		cr.tr.end(s)
		probes := float64(cr.e.Stats().Lookups - before)
		if kind == opNeg {
			cr.probesNeg += probes
		} else {
			cr.probesPos += probes
			cr.posKeys += groupSize
		}
		for i := range cr.ok {
			if cr.ok[i] != cr.okRep[i] {
				cr.o.gate(false, "elastic replica answered %v, facade %v", cr.okRep[i], cr.ok[i])
				break
			}
		}
	} else {
		t0 := time.Now()
		for i, h := range cr.lk {
			cr.ok[i] = cr.e.ContainsHash(h)
		}
		if measured {
			cr.lt.add(kind, groupSize, float64(time.Since(t0)), true)
		}
	}
	cr.issued += groupSize
	for _, y := range cr.ok {
		switch {
		case kind == opPos && !y:
			cr.posMiss++ // gated in warm-up epochs too
		case kind == opNeg && measured:
			cr.negs++
			if y {
				cr.fps++
			}
		}
	}
	if measured {
		cr.lookups += groupSize
	}
}

// sample takes the structural readings of the traced run.
func (cr *cascadeRun) sample() {
	cs := cr.e.CascadeSnapshot()
	var fuse, fuseBytes float64
	for _, l := range cs.Levels {
		if l.Occupancy.SlotsPerBlock == 0 {
			fuse++
			fuseBytes += float64(l.SizeBytes)
		}
	}
	agg := cs.Aggregate
	sm := &cr.samples
	sm.n++
	sm.levels += float64(len(cs.Levels))
	sm.fuseLevels += fuse
	sm.fuseBytes += ratio(fuseBytes, float64(agg.SizeBytes))
	sm.load += agg.LoadFactor
	sm.fullBlocks += ratio(float64(agg.Occupancy.FullBlocks), float64(agg.Occupancy.Blocks))
}

// endEpoch runs the epoch's gates (sweep of live keys [lo, hi), exact
// count, no false negatives) and folds its counts into the run totals.
func (cr *cascadeRun) endEpoch(lo, hi uint64, measured, traced bool) error {
	e := cr.e
	step := (hi-lo)/cascadeSweep + 1
	miss := 0
	for i := lo; i < hi; i += step {
		if !e.ContainsHash(cr.live.key(i)) {
			miss++
		}
	}
	cr.o.gate(miss == 0, "epoch sweep found %d live keys absent", miss)
	cr.o.gate(e.Count() == hi-lo, "epoch Count %d, want %d acknowledged inserts minus removes", e.Count(), hi-lo)
	if !measured {
		return nil
	}
	cr.swept += (hi - lo + step - 1) / step
	cr.bitsPerItem = append(cr.bitsPerItem, ratio(float64(e.SizeBytes()*8), float64(e.Count())))
	if !traced {
		return nil
	}
	cr.o.gate(cr.ef.Count() == e.Count() && cr.ef.NumLevels() == e.Levels(),
		"elastic replica holds %d items in %d levels, facade %d in %d", cr.ef.Count(), cr.ef.NumLevels(), e.Count(), e.Levels())
	cs := e.CascadeSnapshot()
	ev := &cr.events
	ev.compactions += cs.Compactions
	ev.merged += cs.CompactionLevelsMerged
	ev.freezes += cs.Freezes
	ev.thaws += cs.Thaws
	ops := cs.Aggregate.Ops
	cr.ops.inserts += ops.Inserts
	cr.ops.shortcut += ops.ShortcutInserts
	cr.ops.failures += ops.InsertFailures
	lat := e.Latency()
	cr.sampled += lat.Lookup.Count
	return nil
}

// drainEvents counts the structural events recorded since the last call:
// growths, and the durations of growths, compactions and freezes (thaws
// record no event). The ring keeps 256 events; it is drained after every
// batch call, and a gap in sequence numbers fails the run.
func (cr *cascadeRun) drainEvents() error {
	ev := &cr.events
	for _, x := range cr.e.Events() {
		if x.Seq <= cr.lastSeq {
			continue
		}
		if x.Seq != cr.lastSeq+1 {
			return fmt.Errorf("event ring overflowed between batch calls (events %d..%d lost)", cr.lastSeq+1, x.Seq-1)
		}
		cr.lastSeq = x.Seq
		switch x.Kind {
		case "elastic-grow":
			ev.grows++
		case "compact-finish", "freeze-finish":
		default:
			continue
		}
		d := float64(x.C)
		ev.structNs += d
		ev.structMaxNs = max(ev.structMaxNs, d)
	}
	return nil
}

// buildLadders wires the traced run's layer calls: the facade (vqf), the
// internal/elastic replica, a flat internal/core filter holding the whole
// epoch, and the kernel.
func (cr *cascadeRun) buildLadders() {
	cr.batchLadder = []rung{
		{lFacade, func() { cr.got = cr.facadeBatch(cr.kind) }},
		{lElastic, func() {
			cr.rep = 0
			for _, h := range cr.hs {
				if (cr.kind == opInsert && cr.ef.Insert(h)) || (cr.kind == opRemove && cr.ef.Remove(h)) {
					cr.rep++
				}
			}
		}},
		{lCore, func() {
			for _, h := range cr.hs {
				if cr.kind == opInsert {
					cr.c.Insert(h)
				} else {
					cr.c.Remove(h)
				}
			}
		}},
		{lKernel, func() { cr.kern.run(cr.kind, cr.hs) }},
	}
	cr.lookupLadder = []rung{
		{lFacade, func() {
			for i, h := range cr.lk {
				cr.ok[i] = cr.e.ContainsHash(h)
			}
		}},
		{lElastic, func() {
			for i, h := range cr.lk {
				cr.okRep[i] = cr.ef.Contains(h)
			}
		}},
		{lCore, func() {
			for _, h := range cr.lk {
				cr.c.Contains(h)
			}
		}},
		{lKernel, func() { cr.kern.probe(cr.lk) }},
	}
}
