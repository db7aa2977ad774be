package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"vqf"
	"vqf/internal/core"
	"vqf/internal/hashing"
	"vqf/internal/service"
)

// vqfd-binary: an in-process service.Server on loopback hosting one
// sharded filter (2 shards, capacity 2^20, the default 8-bit geometry),
// created through the HTTP admin API and prefilled to 80% load over the
// binary protocol. Two connections, each waiting for its reply, send
// 32-key requests: 80% Contains (half prefill keys, which are never
// removed, half never-inserted keys), 10% Insert of fresh keys and 10%
// Remove of keys the same connection inserted earlier. The server is
// started, prefilled and sent the same requests svcRepeats times (see
// libTimes); each set-up is timed.

const (
	svcRequestsPerSec       = 20000 // per connection per nominal second (2-vCPU Xeon)
	svcTracedRequestsPerSec = 8000
	svcKeys                 = 32
	svcConns                = 2
	svcShards               = 2
	svcRepeats              = 10
	svcLoad                 = 0.80
	svcName                 = "bench"
	svcPingEvery            = 64 // traced runs ping once per this many requests
)

// svcSize fixes a run: the filter's capacity, and how many times the
// server is started, prefilled and sent the same requests.
type svcSize struct {
	capacity uint64
	requests int // per connection and repeat
	repeats  int
}

func svcSizing(cfg config) svcSize {
	switch {
	case cfg.tiny:
		return svcSize{capacity: 1 << 14, requests: 200, repeats: 2}
	case cfg.trace:
		return svcSize{capacity: 1 << 20, requests: cfg.seconds * svcTracedRequestsPerSec, repeats: 1}
	}
	return svcSize{capacity: 1 << 20, requests: cfg.seconds * svcRequestsPerSec / svcRepeats, repeats: svcRepeats}
}

// svcWorld is one started server with its prefilled filter and, on traced
// runs, the in-process replicas of the lower layers.
type svcWorld struct {
	srv     *service.Server
	prefill uint64
	pre     keyStream
	fseed   uint64
	facade  *vqf.Filter    // traced: vqf.NewSharded, as the service hosts it
	core    *core.Sharded8 // traced: the core sharded filter beneath it
}

func (w *svcWorld) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return w.srv.Shutdown(ctx)
}

// startService starts a server, creates the filter and prefills it: the
// set-up the setup_s metric times.
func startService(sz svcSize, pre keyStream, fseed uint64) (*svcWorld, error) {
	srv, err := service.New(service.Config{BinaryAddr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	w := &svcWorld{srv: srv, pre: pre, fseed: fseed}
	info, err := service.NewAdmin("http://" + srv.HTTPAddr()).Create(service.Spec{
		Name: svcName, Kind: service.KindSharded, Capacity: sz.capacity, Shards: svcShards, Seed: fseed})
	if err != nil {
		w.shutdown()
		return nil, fmt.Errorf("create: %w", err)
	}
	w.prefill = uint64(svcLoad * float64(info.SlotCap))
	c, err := service.Dial(srv.BinaryAddr())
	if err != nil {
		w.shutdown()
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	keys := make([]uint64, 0, 4096)
	var acked uint64
	for i := uint64(0); i < w.prefill; i++ {
		keys = append(keys, pre.key(i))
		if len(keys) == cap(keys) || i == w.prefill-1 {
			n, err := c.Insert(svcName, keys)
			if err != nil {
				w.shutdown()
				return nil, fmt.Errorf("prefill: %w", err)
			}
			acked += uint64(n)
			keys = keys[:0]
		}
	}
	if acked != w.prefill {
		w.shutdown()
		return nil, fmt.Errorf("prefill acknowledged %d of %d keys", acked, w.prefill)
	}
	return w, nil
}

// replicate builds the traced run's lower layers with the same prefill.
func (w *svcWorld) replicate(capacity uint64) error {
	w.facade = vqf.NewSharded(capacity, svcShards, vqf.WithSeed(w.fseed))
	w.core = core.NewSharded8(uint64(float64(capacity)/0.9)+1, svcShards, core.Options{})
	hs := make([]uint64, 0, 1<<16)
	var a, b uint64
	for i := uint64(0); i < w.prefill; i++ {
		hs = append(hs, hashing.HashUint64(w.pre.key(i), w.fseed))
		if len(hs) == cap(hs) || i == w.prefill-1 {
			a += uint64(w.facade.AddHashBatch(hs))
			b += uint64(w.core.InsertBatch(hs))
			hs = hs[:0]
		}
	}
	if a != w.prefill || b != w.prefill {
		return fmt.Errorf("replica prefill acknowledged %d and %d of %d keys", a, b, w.prefill)
	}
	return nil
}

// svcConn is one client connection's closed loop and its tallies.
type svcConn struct {
	w       *svcWorld
	c       *service.Client
	r       *rng
	own     keyStream // this connection's fresh keys
	neg     keyStream
	negBase uint64
	ownLo   uint64 // oldest own batch still stored (batch index)
	ownHi   uint64 // next own batch to insert
	unsure  map[uint64]bool
	kern    *kernel
	tr      *tracer

	// The traced run's ladder and the step state it reads.
	ladder   []rung
	kind     uint8
	hs       []uint64
	repFound []bool

	lt                         *libTimes // shared by this connection's repeats
	fps, negs, posMiss         uint64
	inserted, removed, failed  uint64
	removeShort                uint64
	statusNonOK, transportErrs uint64
	insertReqs, partialInserts uint64
	attempted                  uint64
}

func (c *svcConn) nextKind() uint8 {
	switch x := c.r.intn(10); {
	case x < 4:
		return opPos
	case x < 8:
		return opNeg
	case x == 8 || c.ownHi-c.ownLo < 2:
		return opInsert
	}
	return opRemove
}

// fill writes the request's keys and returns the own batch it touches.
func (c *svcConn) fill(kind uint8, keys []uint64) uint64 {
	switch kind {
	case opPos:
		for i := range keys {
			keys[i] = c.w.pre.key(c.r.intn(c.w.prefill))
		}
	case opNeg:
		for i := range keys {
			keys[i] = c.neg.key(c.negBase)
			c.negBase++
		}
	case opInsert:
		b := c.ownHi
		c.ownHi++
		for i := range keys {
			keys[i] = c.own.key(b*svcKeys + uint64(i))
		}
		return b
	case opRemove:
		for c.unsure[c.ownLo] {
			c.ownLo++ // a batch not fully acknowledged is never removed
		}
		b := c.ownLo
		c.ownLo++
		for i := range keys {
			keys[i] = c.own.key(b*svcKeys + uint64(i))
		}
		return b
	}
	return 0
}

// call sends one request and returns the keys acknowledged (stored,
// removed) or the answers (found) it produced.
func (c *svcConn) call(kind uint8, keys []uint64, found []bool) (int, []bool, error) {
	switch kind {
	case opInsert:
		n, err := c.c.Insert(svcName, keys)
		return n, found, err
	case opRemove:
		n, err := c.c.Remove(svcName, keys)
		return n, found, err
	case opPing:
		return 0, found, c.c.Ping()
	}
	found, err := c.c.Contains(svcName, keys, found)
	return len(keys), found, err
}

func (c *svcConn) run(requests int) {
	c.lt.repeat()
	keys := make([]uint64, svcKeys)
	found := make([]bool, svcKeys)
	for q := 0; q < requests; q++ {
		kind := c.nextKind()
		batch := c.fill(kind, keys)
		var n int
		var err error
		if c.tr == nil {
			t0 := time.Now()
			n, found, err = c.call(kind, keys, found)
			c.lt.add(kind, svcKeys, float64(time.Since(t0)), true)
		} else {
			if q%svcPingEvery == 0 {
				s := c.tr.beginStep(opPing, 0)
				sp := c.tr.begin(s, lService)
				_, _, perr := c.call(opPing, nil, nil)
				c.tr.end(sp)
				c.tr.end(s)
				c.account(opPing, perr)
			}
			s := c.tr.beginStep(kind, svcKeys)
			sp := c.tr.begin(s, lService)
			n, found, err = c.call(kind, keys, found)
			c.tr.end(sp)
			sp = c.tr.begin(s, lHash)
			for i, k := range keys {
				c.hs[i] = hashing.HashUint64(k, c.w.fseed)
			}
			c.tr.end(sp)
			c.kind = kind
			c.tr.climb(s, c.ladder)
			c.tr.end(s)
			c.kern.rebalance()
		}
		c.attempted += svcKeys
		if c.account(kind, err) {
			c.failed += svcKeys
			if kind == opInsert {
				c.unsure[batch] = true
			}
			continue
		}
		c.tally(kind, n, found, batch)
	}
}

// account classifies a request error; it reports whether there was one.
// The client reports a non-OK wire status as an error prefixed
// "service: "; anything else is a transport error.
func (c *svcConn) account(kind uint8, err error) bool {
	if err == nil {
		return false
	}
	if strings.HasPrefix(err.Error(), "service: ") {
		c.statusNonOK++
	} else {
		c.transportErrs++
	}
	return true
}

// sum adds u's tallies to c's.
func (c *svcConn) sum(u *svcConn) {
	c.fps += u.fps
	c.negs += u.negs
	c.posMiss += u.posMiss
	c.inserted += u.inserted
	c.removed += u.removed
	c.removeShort += u.removeShort
	c.failed += u.failed
	c.attempted += u.attempted
	c.statusNonOK += u.statusNonOK
	c.transportErrs += u.transportErrs
	c.insertReqs += u.insertReqs
	c.partialInserts += u.partialInserts
}

func (c *svcConn) tally(kind uint8, n int, found []bool, batch uint64) {
	switch kind {
	case opInsert:
		c.insertReqs++
		c.inserted += uint64(n)
		if n < svcKeys {
			c.partialInserts++
			c.failed += uint64(svcKeys - n)
			c.unsure[batch] = true
		}
	case opRemove:
		c.removed += uint64(n)
		c.removeShort += uint64(svcKeys - n)
	case opNeg:
		for _, y := range found {
			c.negs++
			if y {
				c.fps++
			}
		}
	case opPos:
		for _, y := range found {
			if !y {
				c.posMiss++
			}
		}
	}
}

func runService(cfg config) (*outcome, error) {
	sz := svcSizing(cfg)
	o := newOutcome()
	fseed := fmix64(cfg.seed ^ 0x5eed)
	pre := newStream(cfg.seed, streamLive)
	var setupS []float64
	var t svcConn // tallies summed over connections and repeats
	var w *svcWorld
	var conns []*svcConn
	var snap vqf.Snapshot
	var before vqf.OpStats
	loops := make([]*libTimes, svcConns)
	for i := range loops {
		loops[i] = &libTimes{}
	}
	for r := 0; r < sz.repeats; r++ {
		if w != nil {
			if err := w.shutdown(); err != nil {
				return nil, err
			}
		}
		freeMemory()
		t0 := time.Now()
		var err error
		if w, err = startService(sz, pre, fseed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if cfg.trace {
			if err := w.replicate(sz.capacity); err != nil {
				w.shutdown()
				return nil, err
			}
		}
		src := w.srv.Registry().Sources()[svcName]
		before = src.Snapshot().Ops

		// Every repeat sends the same requests to the same prefill, except
		// that each looks up never-inserted keys of its own.
		base := time.Now()
		conns = make([]*svcConn, svcConns)
		for i := range conns {
			cl, err := service.Dial(w.srv.BinaryAddr())
			if err != nil {
				w.shutdown()
				return nil, fmt.Errorf("dial: %w", err)
			}
			conns[i] = &svcConn{w: w, c: cl, r: newRNG(cfg.seed, 100+uint64(i)),
				own: newStream(cfg.seed, streamConnLow+uint64(i)), neg: newStream(cfg.seed, streamNeg),
				negBase: uint64(i)<<40 | uint64(r)<<36, unsure: map[uint64]bool{}, lt: loops[i]}
			if cfg.trace {
				conns[i].kern = newKernel(false, svcLoad, cfg.seed+uint64(i))
				conns[i].tr = newTracer(base, uint32(i)<<28, sz.requests*6)
				conns[i].buildLadder()
			}
		}
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c *svcConn) {
				defer wg.Done()
				c.run(sz.requests)
			}(c)
		}
		wg.Wait()
		for _, c := range conns {
			c.c.Close()
		}

		// Gates: no false negatives (prefill keys and a sweep of them),
		// exact count once both connections are done.
		var rt svcConn
		for _, c := range conns {
			rt.sum(c)
		}
		snap = src.Snapshot()
		o.gate(rt.posMiss == 0, "%d false negatives on prefill keys", rt.posMiss)
		o.gate(rt.removeShort == 0, "%d removes of acknowledged keys found nothing", rt.removeShort)
		want := w.prefill + rt.inserted - rt.removed
		o.gate(snap.Count == want, "Count %d, want %d acknowledged inserts minus removes", snap.Count, want)
		if miss, err := svcSweep(w); err != nil {
			o.gate(false, "sweep: %v", err)
		} else {
			o.gate(miss == 0, "sweep found %d prefill keys absent", miss)
		}
		o.attempted += w.prefill
		t.sum(&rt)
	}
	o.set("setup_s", median(setupS))
	o.attempted += t.attempted
	o.failed = t.failed
	fprGate(o, t.fps, t.negs, snap.FPRFullLoad)

	if !cfg.trace {
		if err := o.setTimes(loops...); err != nil {
			w.shutdown()
			return nil, err
		}
		o.set("fpr", ratio(float64(t.fps), float64(t.negs)))
		o.set("bits_per_item", ratio(float64(snap.SizeBytes*8), float64(snap.Count)))
		o.set("success_rate", o.successRate())
		return o, w.shutdown()
	}

	src := w.srv.Registry().Sources()[svcName]
	trs := make([]*tracer, len(conns))
	for i, c := range conns {
		trs[i] = c.tr
	}
	st := steps(trs...)
	all := []uint8{opNeg, opPos, opInsert, opRemove}
	o.set("facade.batch_us_p50", median(perKey(st, lFacade, all...))*svcKeys/1e3)
	o.set("facade.hash_ns", median(perKey(st, lHash, all...)))
	var self []float64
	for _, s := range st {
		if s.kind != opPing {
			self = append(self, (s.d[lService]-s.d[lHash]-s.d[lFacade])/1e3)
		}
	}
	o.set("service.self_us_p50", median(self))
	o.set("service.self_us_p99", quantile(self, 0.99))
	var ping []float64
	for _, s := range st {
		if s.kind == opPing {
			ping = append(ping, s.d[lService]/1e3)
		}
	}
	o.set("service.ping_us_p50", median(ping))
	o.set("service.status_nonok", float64(t.statusNonOK))
	o.set("service.partial_insert_frac", ratio(float64(t.partialInserts), float64(t.insertReqs)))
	o.set("core.batch_ns_per_key", median(perKey(st, lCore, all...)))
	reportCoreTimes(o, st)
	reportKernel(o, st)
	ops := snap.Ops.Sub(before)
	o.set("core.shortcut_frac", ratio(float64(ops.ShortcutInserts), float64(ops.Inserts)))
	o.set("core.insert_fail_frac", ratio(float64(ops.InsertFailures), float64(ops.Inserts+ops.InsertFailures)))
	o.set("core.opt_retry_frac", ratio(float64(ops.OptRetries), float64(ops.OptAttempts)))
	o.set("core.opt_fallbacks", float64(ops.OptFallbacks))
	o.set("core.full_block_frac", ratio(float64(snap.Occupancy.FullBlocks), float64(snap.Occupancy.Blocks)))
	o.set("core.load_factor", snap.LoadFactor)
	if sh, ok := src.(interface {
		ShardedSnapshot() (vqf.ShardedSnapshot, bool)
	}); ok {
		if ss, ok := sh.ShardedSnapshot(); ok {
			o.set("core.shard_imbalance", ss.Imbalance)
		}
	}
	o.set("trace.overhead_frac", overheadFrac(st))
	if err := writeSpans(cfg.traceDir, cfg.workload, cfg.seed, trs...); err != nil {
		w.shutdown()
		return nil, err
	}
	return o, w.shutdown()
}

// svcSweep looks up up to 65536 prefill keys over a fresh connection and
// returns how many were absent.
func svcSweep(w *svcWorld) (int, error) {
	c, err := service.Dial(w.srv.BinaryAddr())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	step := w.prefill/65536 + 1
	keys := make([]uint64, 0, 1024)
	var found []bool
	miss := 0
	for i := uint64(0); i < w.prefill; i += step {
		keys = append(keys, w.pre.key(i))
		if len(keys) == cap(keys) || i+step >= w.prefill {
			if found, err = c.Contains(svcName, keys, found); err != nil {
				return 0, err
			}
			for _, y := range found {
				if !y {
					miss++
				}
			}
			keys = keys[:0]
		}
	}
	return miss, nil
}

// buildLadder wires the traced run's in-process layer calls beneath the
// service round trip: the vqf.NewSharded batch call the server makes, the
// core.Sharded8 batch beneath it, and this connection's kernel array.
func (c *svcConn) buildLadder() {
	c.hs = make([]uint64, svcKeys)
	c.repFound = make([]bool, svcKeys)
	c.ladder = []rung{
		{lFacade, func() {
			switch c.kind {
			case opInsert:
				c.w.facade.AddHashBatch(c.hs)
			case opRemove:
				c.w.facade.RemoveHashBatch(c.hs)
			default:
				c.repFound = c.w.facade.ContainsHashBatch(c.hs, c.repFound)
			}
		}},
		{lCore, func() {
			switch c.kind {
			case opInsert:
				c.w.core.InsertBatch(c.hs)
			case opRemove:
				c.w.core.RemoveBatch(c.hs)
			default:
				c.repFound = c.w.core.ContainsBatch(c.hs, c.repFound)
			}
		}},
		{lKernel, func() { c.kern.run(c.kind, c.hs) }},
	}
}
