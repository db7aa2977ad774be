package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vqf/internal/telemetry"
	"vqf/internal/workload"
)

// TestShardPartition checks the one counting sort, radixSort, under both
// radices it serves. The shard radix must file every key under its shard
// (the top shardBits bits); the block radix must reproduce the pre-unified
// definition — the top batchRadixBits bits of the primary block index, all
// of them in a small filter. For each, the parts must tile the output, the
// sort must be stable, and the idx variant must produce the same order
// while recording each key's input position.
func TestShardPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hs := make([]uint64, 5000)
	for i := range hs {
		hs[i] = rng.Uint64()
	}
	type radix struct {
		name         string
		shift, width uint
		want         func(h uint64) int // the part a key belongs to
	}
	var cases []radix
	for _, bits := range []uint{0, 1, 3, 8} {
		cases = append(cases, radix{fmt.Sprintf("shard/%d", bits), 64 - bits, bits,
			func(h uint64) int { return int(h >> (64 - bits)) }})
	}
	for _, blockShift := range []uint{blockShift8, blockShift16} {
		for _, nblocks := range []uint64{2, 64, 256, 1 << 12, 1 << 20} {
			mask, top := nblocks-1, uint(0)
			for m := mask; m >= 1<<batchRadixBits; m >>= 1 {
				top++
			}
			shift, width := blockRadix(mask, blockShift)
			cases = append(cases, radix{fmt.Sprintf("block%d/%d", blockShift, nblocks), shift, width,
				func(h uint64) int { return int(((h >> blockShift) & mask) >> top) }})
		}
	}
	for _, c := range cases {
		parts := 1 << c.width
		sorted := make([]uint64, len(hs))
		var bounds [batchShards + 1]int
		for i := range bounds {
			bounds[i] = -7 // stale contents must not leak into the result
		}
		radixSort(hs, sorted, nil, &bounds, c.shift, c.width)
		if bounds[0] != 0 || bounds[parts] != len(hs) {
			t.Fatalf("%s: bounds [%d, %d] do not span the batch", c.name, bounds[0], bounds[parts])
		}
		for r := 0; r < parts; r++ {
			for _, h := range sorted[bounds[r]:bounds[r+1]] {
				if c.want(h) != r {
					t.Fatalf("%s: key %#x filed under part %d, want %d", c.name, h, r, c.want(h))
				}
			}
		}

		sortedIdx, idx := make([]uint64, len(hs)), make([]int32, len(hs))
		var boundsIdx [batchShards + 1]int
		radixSort(hs, sortedIdx, idx, &boundsIdx, c.shift, c.width)
		if !slices.Equal(boundsIdx[:parts+1], bounds[:parts+1]) {
			t.Fatalf("%s: bounds disagree between variants", c.name)
		}
		for j, h := range sortedIdx {
			if h != sorted[j] || hs[idx[j]] != h {
				t.Fatalf("%s: idx[%d] does not point at its key", c.name, j)
			}
			if j > 0 && j != bounds[c.want(h)] && idx[j] <= idx[j-1] {
				t.Fatalf("%s: part %d is not in input order at %d", c.name, c.want(h), j)
			}
		}
	}
}

// TestShardedBasic runs single-key operations through several shard counts
// and checks the aggregate gauges against the per-shard ones.
func TestShardedBasic(t *testing.T) {
	for _, nshards := range []int{1, 4, 5, 8} {
		f := NewSharded8(1<<13, nshards, Options{})
		want := 1 << ShardBitsFor(nshards)
		if f.NumShards() != want {
			t.Fatalf("nshards %d: got %d shards, want %d", nshards, f.NumShards(), want)
		}
		if f.Capacity() < 1<<13 {
			t.Fatalf("nshards %d: capacity %d below requested", nshards, f.Capacity())
		}
		keys := workload.NewStream(uint64(7 + nshards)).Keys(4000)
		for _, h := range keys {
			if !f.Insert(h) {
				t.Fatalf("nshards %d: insert failed at low load", nshards)
			}
		}
		for _, h := range keys {
			if !f.Contains(h) {
				t.Fatalf("nshards %d: false negative", nshards)
			}
		}
		if f.Count() != uint64(len(keys)) {
			t.Fatalf("nshards %d: count %d, want %d", nshards, f.Count(), len(keys))
		}
		var sum uint64
		for _, c := range f.ShardCounts() {
			sum += c
		}
		if sum != f.Count() {
			t.Fatalf("nshards %d: shard counts sum %d != count %d", nshards, sum, f.Count())
		}
		if occs := f.BlockOccupancies(); uint64(len(occs))*uint64(f.SlotsPerBlock()) != f.Capacity() {
			t.Fatalf("nshards %d: occupancy vector does not cover capacity", nshards)
		}
		for _, h := range keys[:100] {
			if !f.Remove(h) {
				t.Fatalf("nshards %d: remove failed", nshards)
			}
		}
		if f.Count() != uint64(len(keys)-100) {
			t.Fatalf("nshards %d: count after removes %d", nshards, f.Count())
		}
	}
}

// TestShardedBalance checks that top-bit shard selection spreads uniform
// keys evenly: no shard more than 2x the mean.
func TestShardedBalance(t *testing.T) {
	f := NewSharded16(1<<14, 8, Options{})
	keys := workload.NewStream(42).Keys(8000)
	for _, h := range keys {
		f.Insert(h)
	}
	mean := float64(len(keys)) / float64(f.NumShards())
	for s, c := range f.ShardCounts() {
		if float64(c) > 2*mean || float64(c) < mean/2 {
			t.Fatalf("shard %d holds %d of %d keys (mean %.0f)", s, c, len(keys), mean)
		}
	}
}

// shardedBatchTable runs shardedBatchRun over both geometries, the given
// shard counts and GOMAXPROCS 1 and 4 (4 engages the shard-disjoint pool
// even on small hosts once nkeys reaches 2·minParallelBatch).
func shardedBatchTable(t *testing.T, nkeys int, shardCounts []int) {
	for _, nshards := range shardCounts {
		for _, gomax := range []int{1, 4} {
			t.Run(fmt.Sprintf("8bit/shards=%d/procs=%d", nshards, gomax), func(t *testing.T) {
				shardedBatchRun(t, NewSharded8, nshards, nkeys, gomax)
			})
			t.Run(fmt.Sprintf("16bit/shards=%d/procs=%d", nshards, gomax), func(t *testing.T) {
				shardedBatchRun(t, NewSharded16, nshards, nkeys, gomax)
			})
		}
	}
}

// shardedBatchRun drives the batch API against a single-key reference on the
// same key set and checks the results agree, with exact Count after every
// batch and exact per-shard batch counters: a sharded batch counts one batch
// on every shard it hands keys to (per maxIdxSegment segment for lookups),
// a one-shard filter delegates the whole batch to its shard. ContainsBatch
// runs twice, the second time with maxIdxSegment shrunk so the segmented
// path runs.
func shardedBatchRun[S coreShard](t *testing.T, mk func(uint64, int, Options) *ShardedFilter[S], nshards, nkeys, gomax int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomax))
	f := mk(uint64(nkeys)*2, nshards, Options{})
	ref := mk(uint64(nkeys)*2, nshards, Options{})
	batchOps := make([]uint64, f.NumShards())
	batchKeys := make([]uint64, f.NumShards())
	// expect books one batch over hs, cut into segment-key segments.
	expect := func(hs []uint64, segment int) {
		if f.NumShards() == 1 {
			batchOps[0]++
			batchKeys[0] += uint64(len(hs))
			return
		}
		for off := 0; off < len(hs); off += segment {
			fed := make([]bool, f.NumShards())
			for _, h := range hs[off:min(off+segment, len(hs))] {
				s := h >> (64 - f.shardBits)
				batchKeys[s]++
				if !fed[s] {
					batchOps[s]++
					fed[s] = true
				}
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		if f.Count() != ref.Count() {
			t.Fatalf("%s: count %d, reference %d", stage, f.Count(), ref.Count())
		}
		for i, s := range f.Shards() {
			if st := s.Stats(); st.BatchOps != batchOps[i] || st.BatchKeys != batchKeys[i] {
				t.Fatalf("%s: shard %d counted %d batches of %d keys, want %d of %d",
					stage, i, st.BatchOps, st.BatchKeys, batchOps[i], batchKeys[i])
			}
		}
	}

	keys := workload.NewStream(uint64(1000 + nkeys)).Keys(nkeys)
	ins := f.InsertBatch(keys)
	expect(keys, len(keys))
	if refIns := applyCount(keys, ref.Insert); ins != refIns {
		t.Fatalf("InsertBatch inserted %d, reference %d", ins, refIns)
	}
	check("insert")

	// Mix present and absent keys, verify order-preserving scatter.
	probe := append(append([]uint64{}, keys...), workload.NewStream(77).Keys(nkeys)...)
	lookup := func(stage string, segment int) {
		t.Helper()
		got := f.ContainsBatch(probe, nil)
		expect(probe, segment)
		for i, h := range probe {
			if got[i] != ref.Contains(h) {
				t.Fatalf("%s: ContainsBatch[%d] = %v, reference %v", stage, i, got[i], !got[i])
			}
		}
		check(stage)
	}
	lookup("lookup", len(probe))
	old := maxIdxSegment
	maxIdxSegment = len(probe)/3 + 1
	lookup("segmented lookup", maxIdxSegment)
	maxIdxSegment = old

	rem := f.RemoveBatch(keys)
	expect(keys, len(keys))
	if refRem := applyCount(keys, ref.Remove); rem != refRem {
		t.Fatalf("RemoveBatch removed %d, reference %d", rem, refRem)
	}
	check("remove")
}

func TestShardedBatchSmall(t *testing.T) { shardedBatchTable(t, 1000, []int{2, 8, 256}) } // w==1 path
func TestShardedBatchParallel(t *testing.T) {
	shardedBatchTable(t, 3*minParallelBatch, []int{2, 8, 256}) // pool path
}
func TestShardedBatchOneShard(t *testing.T) { shardedBatchTable(t, 3*minParallelBatch, []int{1}) } // delegation path

// TestShardedClaimStall pins where the sharded pool records
// EvShardClaimStall: only when a multi-worker insert or remove fan-out
// finishes with idle workers — never on the single-worker path (even for
// an empty batch) and never for lookups.
func TestShardedClaimStall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f := NewSharded8(1<<16, 2, Options{})
	ring := telemetry.NewRing(16)
	f.SetEventRing(ring)
	keys := workload.NewStream(3).Keys(2 * minParallelBatch)
	for i := range keys {
		keys[i] &^= 1 << 63 // every key in shard 0, so a second worker idles
	}
	f.InsertBatch(nil)
	f.InsertBatch(keys[:1000])
	f.ContainsBatch(keys, nil)
	if ev := ring.Events(); len(ev) != 0 {
		t.Fatalf("stall recorded off the multi-worker insert path: %+v", ev)
	}
	f.InsertBatch(keys)
	ev := ring.Events()
	if len(ev) != 1 || ev[0].Kind != telemetry.EvShardClaimStall.String() ||
		ev[0].A != 1 || ev[0].B != 2 || ev[0].C != uint64(len(keys)) {
		t.Fatalf("want one stall of 1 idle worker in 2 over %d keys, got %+v", len(keys), ev)
	}
}

// TestSharded16Batch covers the 16-bit mirror of the batch plumbing.
func TestSharded16Batch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := 2 * minParallelBatch
	f := NewSharded16(uint64(n)*2, 4, Options{})
	keys := workload.NewStream(5).Keys(n)
	if ins := f.InsertBatch(keys); ins != n {
		t.Fatalf("InsertBatch inserted %d of %d at low load", ins, n)
	}
	out := f.ContainsBatch(keys, nil)
	for i := range out {
		if !out[i] {
			t.Fatalf("false negative at %d after batch insert", i)
		}
	}
	if rem := f.RemoveBatch(keys); rem != n {
		t.Fatalf("RemoveBatch removed %d of %d", rem, n)
	}
	if f.Count() != 0 {
		t.Fatalf("count %d after removing everything", f.Count())
	}
}

// TestShardedStatsAggregation checks that Stats sums the shard-private
// counters: inserts, lookups, and batch totals must equal the operations
// issued regardless of which shard served them.
func TestShardedStatsAggregation(t *testing.T) {
	f := NewSharded8(1<<12, 8, Options{})
	keys := workload.NewStream(9).Keys(1000)
	for _, h := range keys[:500] {
		f.Insert(h)
	}
	f.InsertBatch(keys[500:])
	for _, h := range keys[:200] {
		f.Contains(h)
	}
	f.ContainsBatch(keys, nil)
	for _, h := range keys[:50] {
		f.Remove(h)
	}
	st := f.Stats()
	if st.Inserts != 1000 {
		t.Fatalf("Inserts = %d, want 1000", st.Inserts)
	}
	if st.Lookups != 200+1000 {
		t.Fatalf("Lookups = %d, want 1200", st.Lookups)
	}
	if st.Removes != 50 {
		t.Fatalf("Removes = %d, want 50", st.Removes)
	}
	if st.BatchKeys != 500+1000 {
		t.Fatalf("BatchKeys = %d, want 1500", st.BatchKeys)
	}
	if st.BatchOps == 0 {
		t.Fatal("BatchOps not counted")
	}
}

// TestCFilterSerializeRoundTrip round-trips the concurrent filters through
// the sequential stream format, including cross-form loads in both
// directions (locked <-> plain metadata conversion).
func TestCFilterSerializeRoundTrip(t *testing.T) {
	f := NewCFilter8(1<<12, Options{})
	keys := workload.NewStream(21).Keys(3000)
	for _, h := range keys {
		if !f.Insert(h) {
			t.Fatal("insert failed at low load")
		}
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	raw := append([]byte{}, buf.Bytes()...)

	g, err := ReadCFilter8(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != f.Count() {
		t.Fatalf("count mismatch: %d vs %d", g.Count(), f.Count())
	}
	for _, h := range keys {
		if !g.Contains(h) {
			t.Fatal("false negative after concurrent round trip")
		}
	}
	if !g.Remove(keys[0]) || !g.Insert(keys[0]) {
		t.Fatal("deserialized concurrent filter not operational")
	}

	// Cross-form: the same stream loads as a sequential filter...
	sf, err := ReadFilter8(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range keys {
		if !sf.Contains(h) {
			t.Fatal("false negative loading concurrent stream as sequential")
		}
	}
	// ...and a sequential writer's stream loads as a concurrent filter.
	var sbuf bytes.Buffer
	if _, err := sf.WriteTo(&sbuf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadCFilter8(&sbuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range keys {
		if !g2.Contains(h) {
			t.Fatal("false negative loading sequential stream as concurrent")
		}
	}
}

// TestCFilterSerializeFullBlock serializes filters holding completely full
// blocks, exercising the implicit-terminator top-bit conversion (79 stored
// terminators for Block8, 35 for Block16) in both directions.
func TestCFilterSerializeFullBlock(t *testing.T) {
	fullBlocks := func(t *testing.T, occs []uint, slots uint) {
		t.Helper()
		for _, occ := range occs {
			if occ == slots {
				return
			}
		}
		t.Fatalf("no full block after insert-to-failure (occupancies %v)", occs)
	}
	t.Run("cfilter8", func(t *testing.T) {
		f := NewCFilter8(48, Options{}) // smallest filter: insert until a block fills
		rng := rand.New(rand.NewSource(31))
		var keys []uint64
		for {
			h := rng.Uint64()
			if !f.Insert(h) {
				break
			}
			keys = append(keys, h)
		}
		fullBlocks(t, f.BlockOccupancies(), 48)
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		g, err := ReadCFilter8(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.Count() != f.Count() {
			t.Fatalf("count mismatch: %d vs %d", g.Count(), f.Count())
		}
		for _, h := range keys {
			if !g.Contains(h) {
				t.Fatal("false negative on full-block round trip")
			}
		}
		if !g.Remove(keys[len(keys)-1]) {
			t.Fatal("remove failed on deserialized full block")
		}
	})
	t.Run("cfilter16", func(t *testing.T) {
		f := NewCFilter16(28, Options{})
		rng := rand.New(rand.NewSource(32))
		var keys []uint64
		for {
			h := rng.Uint64()
			if !f.Insert(h) {
				break
			}
			keys = append(keys, h)
		}
		fullBlocks(t, f.BlockOccupancies(), 28)
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		g, err := ReadCFilter16(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range keys {
			if !g.Contains(h) {
				t.Fatal("false negative on full-block round trip")
			}
		}
	})
}

// TestCFilterSerializeLockedError checks that WriteTo refuses a filter with
// a held block lock instead of persisting a torn stream.
func TestCFilterSerializeLockedError(t *testing.T) {
	f := NewCFilter8(1<<10, Options{})
	f.Insert(12345)
	f.blocks[0].Lock()
	defer f.blocks[0].Unlock()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err == nil {
		t.Fatal("WriteTo succeeded on a filter with a held lock")
	}
}

// TestShardedSerializeRoundTrip round-trips both sharded geometries through
// the VQSH sub-header format.
func TestShardedSerializeRoundTrip(t *testing.T) {
	f8 := NewSharded8(1<<13, 4, Options{})
	keys := workload.NewStream(51).Keys(4000)
	for _, h := range keys {
		f8.Insert(h)
	}
	var buf bytes.Buffer
	n, err := f8.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	g8, g16, err := ReadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g16 != nil || g8 == nil {
		t.Fatal("ReadSharded dispatched to the wrong geometry")
	}
	if g8.NumShards() != f8.NumShards() || g8.Count() != f8.Count() {
		t.Fatalf("shape mismatch: %d/%d shards, %d/%d keys",
			g8.NumShards(), f8.NumShards(), g8.Count(), f8.Count())
	}
	for _, h := range keys {
		if !g8.Contains(h) {
			t.Fatal("false negative after sharded round trip")
		}
	}
	if !g8.Remove(keys[0]) || !g8.Insert(keys[0]) {
		t.Fatal("deserialized sharded filter not operational")
	}

	f16 := NewSharded16(1<<12, 8, Options{})
	for _, h := range keys[:2000] {
		f16.Insert(h)
	}
	buf.Reset()
	if _, err := f16.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h8, h16, err := ReadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h8 != nil || h16 == nil {
		t.Fatal("ReadSharded dispatched to the wrong geometry")
	}
	for _, h := range keys[:2000] {
		if !h16.Contains(h) {
			t.Fatal("false negative after sharded16 round trip")
		}
	}
}

// TestShardedSerializeBadHeader checks sub-header validation failures.
func TestShardedSerializeBadHeader(t *testing.T) {
	f := NewSharded8(1<<10, 2, Options{})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, mut := range map[string]func(b []byte){
		"magic":    func(b []byte) { b[0] ^= 0xff },
		"version":  func(b []byte) { b[4] = 99 },
		"geometry": func(b []byte) { b[6] = 7 },
		"shards":   func(b []byte) { b[8] = 3 }, // not a power of two
	} {
		bad := append([]byte{}, good...)
		mut(bad)
		if _, _, err := ReadSharded(bytes.NewReader(bad)); err == nil {
			t.Fatalf("ReadSharded accepted a corrupted %s field", name)
		}
	}
}

// TestShardedChurnRace is the sharded -race churn check: writers insert and
// remove churn keys (each writer biased to a distinct shard's key range by
// construction of its stream), while readers run cross-shard single-key and
// batch lookups over a resident set that is never removed.
func TestShardedChurnRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := NewSharded8(1<<12, 4, Options{})
	const residents = 800
	const writers = 4
	const churnOps = 1500
	res := workload.NewStream(61).Keys(residents)
	for _, h := range res {
		if !f.Insert(h) {
			t.Fatal("resident insert failed at low load")
		}
	}
	errs := make(chan string, writers+2)
	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(id int) {
			defer writersWG.Done()
			// Bias this writer's keys to one shard: force the top two hash
			// bits so the writer churns mostly inside "its" shard.
			churn := workload.NewStream(uint64(71 + id)).Keys(churnOps)
			top := uint64(id) << 62
			for _, h := range churn {
				h = (h &^ (uint64(3) << 62)) | top
				if f.Insert(h) {
					f.Remove(h)
				}
			}
		}(w)
	}
	readersWG.Add(2)
	go func() {
		defer readersWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, h := range res {
				if !f.Contains(h) {
					errs <- "resident lost under sharded churn"
					return
				}
			}
		}
	}()
	go func() {
		defer readersWG.Done()
		dst := make([]bool, residents)
		for {
			select {
			case <-done:
				return
			default:
			}
			out := f.ContainsBatch(res, dst)
			for i := range out {
				if !out[i] {
					errs <- "resident lost in sharded batch lookup"
					return
				}
			}
		}
	}()
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	for _, h := range res {
		if !f.Contains(h) {
			t.Fatal("resident lost after churn settled")
		}
	}
}
