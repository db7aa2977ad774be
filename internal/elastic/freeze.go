package elastic

import (
	"encoding/binary"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"vqf/internal/core"
	"vqf/internal/fuse"
	"vqf/internal/minifilter"
	"vqf/internal/stats"
)

// Frozen tier. A cascade's old levels are read-mostly after churn, yet each
// keeps paying the VQF's ~25% metadata overhead for update support nobody
// uses anymore. Freezing rebuilds a run of frozen VQF levels into ONE
// immutable binary-fuse level (internal/fuse, ~1.08× entropy overhead),
// keyed by the pair-representative canonical hash (core.FoldHash8/16): both
// candidate blocks of a key map to the same representative, so a membership
// probe costs a single 3-segment fuse lookup instead of two VQF block scans.
//
// FPR accounting: the fuse level inherits the SUM of its sources' budgets
// εf = Σ εᵢ, preserving the cascade invariant Σ budgets + reclaimed ≤ ε.
// Its analytic FPR has two independent terms, each held to εf/2 by planning:
//
//   - canonical collisions: a negative key folds onto one of roughly
//     foldBlocks·buckets·2^srcBits/2 representatives, so colliding with one
//     of the D stored representatives happens with probability
//     ≈ 2·D/(foldBlocks·buckets·2^srcBits) — this is exact membership noise
//     the VQF sources had too (it is their fingerprint collision rate);
//   - fuse fingerprint collisions: 2⁻ʷ for width w ∈ {8, 16}; the planner
//     picks the narrowest width that fits.
//
// Remove semantics: the fuse structure is immutable, so removes go to a
// tombstone ledger bounded by the exact key multiset (the "vault", a
// delta-varint-compressed sorted array of packed keys kept alongside the
// fuse filter — ~⌈log₂ keyspace⌉−6 bits/key). The vault makes Remove exact:
// a fuse false positive can never decrement Count or tombstone a ghost key.
// The ledger is indexed by a key's rank in the vault: one bit per distinct
// key, set once all its frozen instances are removed, plus a removed count
// for each key frozen more than once.
// When tombstones reach ¼ of the frozen population the level thaws — it is
// rebuilt into a right-sized live VQF level (or re-fused without the dead
// keys when the survivors no longer fit the VQF geometry under the fold
// bound).
//
// Freezes and thaws are structural ops like compaction: a planner here,
// carried out by the shared routine in cascade.go, which on the concurrent
// filter seals the sources, builds off-lock from per-block snapshots, then
// reconciles the remove log and swaps the level list atomically. The fuse
// level's CountAtBlock/CandidateBlocks are defined so reconcile's
// count-differencing is exact in both directions (freeze: fuse as
// destination; thaw: fuse as source): a key's instances are "located" only
// at its representative block.

// Level kinds of the frozen tier, distinct from the VQF fingerprint widths
// 8/16 used as level kinds so serialization and run planning can tell the
// tiers apart. The value encodes the SOURCE geometry the fold keys carry.
const (
	kindFuse8  uint8 = 108
	kindFuse16 uint8 = 116
)

// vqfKind reports whether a level kind is a live VQF geometry (as opposed
// to a frozen fuse level).
func vqfKind(k uint8) bool { return k == 8 || k == 16 }

// fuseKind reports whether a level kind is a frozen fuse tier.
func fuseKind(k uint8) bool { return k == kindFuse8 || k == kindFuse16 }

func fuseKindFor(srcKind uint8) uint8 {
	if srcKind == 8 {
		return kindFuse8
	}
	return kindFuse16
}

// thawNum/thawDen: a fuse level thaws once tombstones cover ≥ 1/4 of the
// population it froze with.
const (
	thawNum = 1
	thawDen = 4
)

// FreezeResult summarizes one FreezeNow call.
type FreezeResult struct {
	// LevelsBefore and LevelsAfter are the cascade depths around the call.
	LevelsBefore int
	LevelsAfter  int
	// LevelsFrozen is the number of source VQF levels rebuilt into fuse
	// levels or dropped empty (0 when no run qualified).
	LevelsFrozen int
	// FuseLevels is the number of immutable fuse levels produced.
	FuseLevels int
}

// dupe is a vault key frozen more than once: its instance count (immutable)
// and how many of them have been removed. The CAS loop in tombstone caps
// removed at base, so a key can only be removed as many times as it was
// frozen — the exactness the mutable VQF levels guarantee by physically
// deleting fingerprints.
type dupe struct {
	base    uint64
	removed atomic.Uint64
}

// rankBits is an atomic bitset over vault ranks.
type rankBits []atomic.Uint64

func newRankBits(n int) rankBits { return make(rankBits, (n+63)/64) }

func (b rankBits) has(r int) bool { return b[r>>6].Load()&(1<<(r&63)) != 0 }

// set sets bit r and reports whether it was clear. It is a CAS loop on the
// bit's word, since atomic.Uint64 has no Or before Go 1.23.
func (b rankBits) set(r int) bool {
	w, m := &b[r>>6], uint64(1)<<(r&63)
	for {
		old := w.Load()
		if old&m != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|m) {
			return true
		}
	}
}

// vaultBlock is the vault's delta-compression block size: one absolute
// anchor per vaultBlock keys, varint deltas between.
const vaultBlock = 64

// vault is the exact sorted multiset support of a fuse level: every
// distinct packed key, delta-varint compressed. It exists because the fuse
// filter alone is approximate — Remove and reconciliation need exact
// instance counts, and thaw needs the keys back.
type vault struct {
	n     int
	index []uint64 // anchor (first packed key) of each block
	offs  []uint32 // byte offset of each block's delta stream in data
	data  []byte
}

// buildVault compresses a sorted slice of distinct packed keys.
func buildVault(sorted []uint64) vault {
	v := vault{n: len(sorted)}
	if v.n == 0 {
		return v
	}
	nb := (v.n + vaultBlock - 1) / vaultBlock
	v.index = make([]uint64, 0, nb)
	v.offs = make([]uint32, 0, nb)
	var buf [binary.MaxVarintLen64]byte
	for i, p := range sorted {
		if i%vaultBlock == 0 {
			v.index = append(v.index, p)
			v.offs = append(v.offs, uint32(len(v.data)))
			continue
		}
		n := binary.PutUvarint(buf[:], p-sorted[i-1])
		v.data = append(v.data, buf[:n]...)
	}
	return v
}

// rank returns p's index in the vault's ascending key order, or -1 when p
// is not in the vault: a binary search over the block anchors, then a short
// delta scan within one block.
func (v *vault) rank(p uint64) int {
	i, found := slices.BinarySearch(v.index, p)
	if found {
		return i * vaultBlock
	}
	if i--; i < 0 {
		return -1
	}
	cur := v.index[i]
	data := v.data[v.offs[i]:]
	for j := i*vaultBlock + 1; j < min((i+1)*vaultBlock, v.n); j++ {
		d, n := binary.Uvarint(data)
		data = data[n:]
		cur += d
		if cur >= p {
			if cur == p {
				return j
			}
			return -1
		}
	}
	return -1
}

// iterate yields every packed key with its rank in ascending order; returns
// false if yield stopped early.
func (v *vault) iterate(yield func(r int, p uint64) bool) bool {
	data := v.data
	var cur uint64
	for i := 0; i < v.n; i++ {
		if i%vaultBlock == 0 {
			cur = v.index[i/vaultBlock]
		} else {
			d, n := binary.Uvarint(data)
			data = data[n:]
			cur += d
		}
		if !yield(i, cur) {
			return false
		}
	}
	return true
}

func (v *vault) sizeBytes() uint64 {
	return uint64(len(v.data)) + 8*uint64(len(v.index)) + 4*uint64(len(v.offs))
}

// fuseLevel is the immutable coreFilter of a frozen cascade level: a binary
// fuse filter over pair-representative canonical keys, the exact vault, a
// duplicate-instance map (a VQF level is a multiset), and the tombstone
// ledger for removes. All structure except the ledger's bits and counts is
// immutable after construction, so Contains is lock-free by construction.
type fuseLevel struct {
	// srcKind is the source VQF geometry (8 or 16) whose canonical key
	// space the fold keys live in; fpBits is the fuse fingerprint width.
	srcKind uint8
	fpBits  uint8
	// foldBlocks/foldMask is the fold geometry: the minimum block count of
	// the frozen run (the destination mask must be a suffix of every source
	// mask; see internal/core/iterate.go).
	foldBlocks uint64
	foldMask   uint64

	f8  *fuse.Filter8
	f16 *fuse.Filter16

	vault vault
	// dupes maps packed keys stored more than once to their instance and
	// removed counts; the map itself is immutable after construction.
	// Usually empty: duplicates require inserting the same key twice or a
	// source-level fingerprint collision.
	dupes map[uint64]*dupe
	// dead is the tombstone ledger: bit r is set once every frozen instance
	// of the vault key of rank r has been removed.
	dead rankBits

	// baseTotal is the frozen instance total; live = baseTotal − tombTotal.
	baseTotal uint64
	live      atomic.Uint64
	tombTotal atomic.Uint64

	ops stats.Striped
}

// newFuseLevel builds the immutable structures from the folded canonical
// keys of a frozen run (one per stored instance, duplicates allowed; the
// slice is consumed as scratch).
func newFuseLevel(srcKind, fpBits uint8, foldBlocks uint64, keys []uint64) (*fuseLevel, error) {
	l := &fuseLevel{
		srcKind:    srcKind,
		fpBits:     fpBits,
		foldBlocks: foldBlocks,
		foldMask:   foldBlocks - 1,
		baseTotal:  uint64(len(keys)),
	}
	packed := make([]uint64, len(keys))
	for i, k := range keys {
		packed[i] = l.pack(k)
	}
	slices.Sort(packed)
	w := 0
	for _, p := range packed {
		if w > 0 && p == packed[w-1] {
			if l.dupes == nil {
				l.dupes = make(map[uint64]*dupe)
			}
			if d := l.dupes[p]; d != nil {
				d.base++
			} else {
				l.dupes[p] = &dupe{base: 2}
			}
			continue
		}
		packed[w] = p
		w++
	}
	distinct := packed[:w]
	ck := keys[:0]
	for _, p := range distinct {
		ck = append(ck, l.unpack(p))
	}
	var err error
	if fpBits == 8 {
		l.f8, err = fuse.Build8(ck)
	} else {
		l.f16, err = fuse.Build16(ck)
	}
	if err != nil {
		return nil, err
	}
	l.vault = buildVault(distinct)
	l.dead = newRankBits(l.vault.n)
	l.live.Store(l.baseTotal)
	return l, nil
}

// key folds a raw hash to its pair-representative canonical key.
func (l *fuseLevel) key(h uint64) uint64 {
	if l.srcKind == 8 {
		return core.FoldHash8(h, l.foldMask)
	}
	return core.FoldHash16(h, l.foldMask)
}

// blockOf extracts a canonical key's (representative) block index.
func (l *fuseLevel) blockOf(k uint64) uint64 {
	if l.srcKind == 8 {
		return k >> 24
	}
	return k >> 32
}

// pack maps a canonical key to a dense integer — (block·2^srcBits +
// fingerprint)·buckets + bucket — monotone in (block, fp, bucket), which
// keeps vault deltas small and freeze-time key streams nearly sorted.
func (l *fuseLevel) pack(k uint64) uint64 {
	if l.srcKind == 8 {
		return (k>>16)*minifilter.B8Buckets + (k&0xffff)*minifilter.B8Buckets>>16
	}
	return (k>>16)*minifilter.B16Buckets + (k&0xffff)*minifilter.B16Buckets>>16
}

// unpack inverts pack back to the canonical key.
func (l *fuseLevel) unpack(p uint64) uint64 {
	if l.srcKind == 8 {
		rest, bucket := p/minifilter.B8Buckets, p%minifilter.B8Buckets
		return core.CanonicalHash8(rest>>8, uint(bucket), byte(rest))
	}
	rest, bucket := p/minifilter.B16Buckets, p%minifilter.B16Buckets
	return core.CanonicalHash16(rest>>16, uint(bucket), uint16(rest))
}

func (l *fuseLevel) fuseContains(k uint64) bool {
	if l.fpBits == 8 {
		return l.f8.Contains(k)
	}
	return l.f16.Contains(k)
}

// instances returns how many instances of vault key p were frozen.
func (l *fuseLevel) instances(p uint64) uint64 {
	if d := l.dupes[p]; d != nil {
		return d.base
	}
	return 1
}

// net returns the surviving instance count of vault key p of rank r:
// frozen minus tombstoned.
func (l *fuseLevel) net(r int, p uint64) uint64 {
	if l.dead.has(r) {
		return 0
	}
	if len(l.dupes) > 0 {
		if d := l.dupes[p]; d != nil {
			return d.base - d.removed.Load()
		}
	}
	return 1
}

// netOf returns packed key p's surviving instance count (0 when p is not
// in the vault — exact, immune to fuse false positives).
func (l *fuseLevel) netOf(p uint64) uint64 {
	r := l.vault.rank(p)
	if r < 0 {
		return 0
	}
	return l.net(r, p)
}

// tombAlive reports whether canonical key k is NOT fully tombstoned. Keys
// absent from the vault (fuse false positives) report alive — they were
// already a false positive within budget, and have no ledger entry.
func (l *fuseLevel) tombAlive(k uint64) bool {
	r := l.vault.rank(l.pack(k))
	return r < 0 || !l.dead.has(r)
}

// tombstone records the removal of one frozen instance of packed key p. It
// fails when p is not in the vault (a fuse false positive) or when every
// instance of p is already removed. A single-instance key is removed by
// setting its bit; a duplicate counts up to its base first, and the
// remove that reaches it sets the bit.
func (l *fuseLevel) tombstone(p uint64) bool {
	r := l.vault.rank(p)
	if r < 0 {
		return false
	}
	d := l.dupes[p]
	if d == nil {
		return l.dead.set(r)
	}
	for {
		n := d.removed.Load()
		if n >= d.base {
			return false
		}
		if d.removed.CompareAndSwap(n, n+1) {
			if n+1 == d.base {
				l.dead.set(r)
			}
			return true
		}
	}
}

// needsThaw reports whether the tombstone ledger crossed the thaw
// threshold.
func (l *fuseLevel) needsThaw() bool {
	return l.baseTotal > 0 && l.tombTotal.Load()*thawDen >= l.baseTotal*thawNum
}

// Insert always fails: the level is immutable. The cascade never routes
// inserts here (only the newest level takes inserts, and a fuse level is
// never newest), so this is a defensive backstop.
func (l *fuseLevel) Insert(h uint64) bool { return false }

// Contains probes the fuse filter with the folded key — one lookup covers
// both VQF candidate blocks — then consults the tombstone ledger only when
// tombstones exist (the common frozen level skips it with one atomic load).
func (l *fuseLevel) Contains(h uint64) bool {
	k := l.key(h)
	l.ops.Lookup(l.blockOf(k))
	if !l.fuseContains(k) {
		return false
	}
	if l.tombTotal.Load() == 0 {
		return true
	}
	return l.tombAlive(k)
}

// ContainsBatch implements batchProber: folds a tile of keys, probes the
// fuse filter's batched path, then rechecks positives against tombstones.
func (l *fuseLevel) ContainsBatch(hs []uint64, dst []bool) []bool {
	if cap(dst) < len(hs) {
		dst = make([]bool, len(hs))
	}
	out := dst[:len(hs)]
	var tile [256]uint64
	tombs := l.tombTotal.Load() > 0
	for base := 0; base < len(hs); base += len(tile) {
		n := len(hs) - base
		if n > len(tile) {
			n = len(tile)
		}
		for i := 0; i < n; i++ {
			tile[i] = l.key(hs[base+i])
		}
		chunk := out[base : base+n]
		if l.fpBits == 8 {
			l.f8.ContainsBatch(tile[:n], chunk)
		} else {
			l.f16.ContainsBatch(tile[:n], chunk)
		}
		if tombs {
			for i := 0; i < n; i++ {
				if chunk[i] {
					chunk[i] = l.tombAlive(tile[i])
				}
			}
		}
	}
	l.ops.Batch(len(hs))
	return out
}

// Remove tombstones one instance of h. The vault lookup makes it exact: a
// fuse false positive (no vault entry) is a miss, and the ledger caps
// removes at the frozen instance count, so Count can never drift below the
// true population.
func (l *fuseLevel) Remove(h uint64) bool {
	k := l.key(h)
	sel := l.blockOf(k)
	if !l.fuseContains(k) || !l.tombstone(l.pack(k)) {
		l.ops.RemoveMiss(sel)
		return false
	}
	l.tombTotal.Add(1)
	l.live.Add(^uint64(0))
	l.ops.Remove(sel)
	return true
}

// Count returns the surviving (non-tombstoned) instance count.
func (l *fuseLevel) Count() uint64 { return l.live.Load() }

// Capacity is the frozen population: the level is born full and only
// shrinks, so load factor = live/baseTotal ∈ [0, 1].
func (l *fuseLevel) Capacity() uint64 { return l.baseTotal }

// SizeBytes covers the immutable structures (fuse array + vault); the
// tombstone ledger (one bit per vault key plus the duplicates' counts) is
// transient thaw-bounded state.
func (l *fuseLevel) SizeBytes() uint64 {
	var fb uint64
	if l.fpBits == 8 {
		fb = l.f8.SizeBytes()
	} else {
		fb = l.f16.SizeBytes()
	}
	return fb + l.vault.sizeBytes()
}

func (l *fuseLevel) Stats() stats.OpCounts { return l.ops.Counts() }

// BlockOccupancies returns nil: a fuse level has no slot geometry.
func (l *fuseLevel) BlockOccupancies() []uint { return nil }

// SlotsPerBlock returns 0: no slot geometry.
func (l *fuseLevel) SlotsPerBlock() uint { return 0 }

// IterateHashes yields each surviving key instance's canonical hash —
// already the pair representative under foldMask, so reinsertion into any
// xor-linked filter with ≤ foldBlocks blocks reproduces membership exactly.
func (l *fuseLevel) IterateHashes(yield func(h uint64) bool) bool {
	return l.vault.iterate(func(r int, p uint64) bool {
		n := l.net(r, p)
		if n == 0 {
			return true
		}
		h := l.unpack(p)
		for ; n > 0; n-- {
			if !yield(h) {
				return false
			}
		}
		return true
	})
}

// CandidateBlocks returns h's candidate pair under the fold mask. Both
// members are reported (not just the representative) so reconcile's stride
// walk covers every source block that folds onto the pair; CountAtBlock
// then locates instances only at the representative, keeping the
// count-differencing exactly-once.
func (l *fuseLevel) CandidateBlocks(h uint64) (uint64, uint64) {
	if l.srcKind == 8 {
		return core.CandidatePair8(h, l.foldMask)
	}
	return core.CandidatePair16(h, l.foldMask)
}

// CountAtBlock counts h's (bucket, fingerprint) instances anchored at block
// b: it synthesizes the canonical hash at b, folds it, and answers only
// when b IS the fold representative — every key instance is counted at
// exactly one block, which is what reconcile's cross-geometry stride sums
// rely on (in both the freeze and thaw directions).
func (l *fuseLevel) CountAtBlock(b, h uint64) uint64 {
	var k uint64
	if l.srcKind == 8 {
		k = core.FoldHash8(h&0xffffff|b<<24, l.foldMask)
	} else {
		k = core.FoldHash16(h&0xffffffff|b<<32, l.foldMask)
	}
	if l.blockOf(k) != b {
		return 0
	}
	return l.netOf(l.pack(k))
}

// NumBlocks returns the fold geometry's block count.
func (l *fuseLevel) NumBlocks() uint64 { return l.foldBlocks }

// canonFPR is the canonical-collision term of a fuse level's FPR: the
// chance that a negative key folds onto one of live stored representatives
// of the srcKind geometry under a foldBlocks-block fold.
func canonFPR(srcKind uint8, live, foldBlocks uint64) float64 {
	buckets, fpSpace := float64(minifilter.B8Buckets), 256.0
	if srcKind == 16 {
		buckets, fpSpace = float64(minifilter.B16Buckets), 65536.0
	}
	return 2 * float64(live) / (float64(foldBlocks) * buckets * fpSpace)
}

// fuseSpec is a planned fuse level: the source VQF kind whose canonical key
// space the fold keys live in, the fuse fingerprint width, the fold's block
// count, and the budget the level inherits.
type fuseSpec struct {
	srcKind, fpBits uint8
	foldBlocks      uint64
	budget          float64
}

// fusePlan checks whether a run can be frozen within its summed budget.
// Both analytic FPR terms are held to budget/2: the canonical-collision
// term is fixed by the fold geometry and live count, the fuse term by the
// narrowest fingerprint width that fits. An all-empty run plans as a drop.
func fusePlan(run []*level) (plan, bool) {
	live, budget, minBlocks := runStats(run)
	if live == 0 {
		return plan{drop: true}, true
	}
	s := fuseSpec{srcKind: run[0].kind, foldBlocks: minBlocks, budget: budget}
	switch {
	case canonFPR(s.srcKind, live, minBlocks) > budget/2:
		return plan{}, false
	case 1.0/256 <= budget/2:
		s.fpBits = 8
	case 1.0/65536 <= budget/2:
		s.fpBits = 16
	default:
		return plan{}, false
	}
	return plan{build: func() *level { return buildFuseLevel(s, run) }}, true
}

// planFreezes plans a fuse rebuild of every run of frozen VQF levels that
// pass the gate (nil accepts everything), dropping the oldest levels of a
// run that cannot meet its budget. Unlike compaction a single level is a
// worthwhile freeze unit — the win is the representation, not the merge.
func planFreezes(ls []*level, gate *freezeGate) []plan {
	return planSegments(ls, vqfRuns(ls, 1, gate), 1, func(seg []*level) (plan, bool) {
		return shrink(seg, 1, fusePlan)
	})
}

// buildFuseLevel folds every source instance's canonical hash to its pair
// representative and builds the immutable level; nil means peeling failed
// (vanishingly rare) and the sources stay as they are.
func buildFuseLevel(s fuseSpec, srcs []*level) *level {
	fold := core.FoldHash16
	if s.srcKind == 8 {
		fold = core.FoldHash8
	}
	foldMask := s.foldBlocks - 1
	keys := make([]uint64, 0, sumCounts(srcs))
	for _, src := range srcs {
		src.filter.IterateHashes(func(h uint64) bool {
			keys = append(keys, fold(h, foldMask))
			return true
		})
	}
	fl, err := newFuseLevel(s.srcKind, s.fpBits, s.foldBlocks, keys)
	if err != nil {
		return nil
	}
	return fl.asLevel(s.budget)
}

// asLevel wraps l in a cascade level with the given budget. Its geomFPR is
// the analytic FPR: the canonical-collision term at the frozen population
// plus the fuse fingerprint term 2⁻ʷ.
func (l *fuseLevel) asLevel(budget float64) *level {
	return &level{filter: l, kind: fuseKindFor(l.srcKind), budget: budget,
		geomFPR: canonFPR(l.srcKind, l.baseTotal, l.foldBlocks) + math.Pow(2, -float64(l.fpBits))}
}

// freezeGate is the WithAutoFreeze eligibility test: a level qualifies once
// it has been frozen (out of the insert path) for at least minAge and its
// load factor is at or below maxLoad. A zero frozenAt stamp (deserialized
// cascades) counts as old. now is a monoNow reading, taken only when
// minAge > 0.
type freezeGate struct {
	maxLoad     float64
	minAge, now int64
}

// autoFreezeGate returns the gate for cfg's WithAutoFreeze policy.
func autoFreezeGate(cfg Config) freezeGate {
	g := freezeGate{maxLoad: cfg.FreezeMaxLoad, minAge: cfg.FreezeMinAge.Nanoseconds()}
	if g.minAge > 0 {
		g.now = monoNow()
	}
	return g
}

// admits reports whether l passes the gate; a nil gate admits every level.
func (g *freezeGate) admits(l *level) bool {
	if g == nil {
		return true
	}
	if g.minAge > 0 {
		if fa := l.frozenAt.Load(); fa != 0 && g.now-fa < g.minAge {
			return false
		}
	}
	c := l.filter.Capacity()
	return c == 0 || float64(l.filter.Count()) <= g.maxLoad*float64(c)
}

// planThaws plans a rebuild of every fuse level whose tombstone ledger
// crossed the thaw threshold, newest first; a fully tombstoned level is
// dropped and its budget reclaimed.
func planThaws(cfg Config, ls []*level) []plan {
	var plans []plan
	for i := len(ls) - 1; i >= 0; i-- {
		if fl, ok := ls[i].filter.(*fuseLevel); ok && fl.needsThaw() {
			lvl := ls[i]
			plans = append(plans, plan{hi: i + 1, sub: ls[i : i+1], drop: fl.Count() == 0,
				build: func() *level { return thawedLevel(cfg, lvl) }})
		}
	}
	return plans
}

// thawedLevel rebuilds a tombstone-laden fuse level into live form: a
// right-sized VQF level when the survivors fit under the fold's cross-mask
// bound, else a fresh fuse level without the dead keys. nil means the
// rebuild failed and the original stays.
func thawedLevel(cfg Config, lvl *level) *level {
	fl := lvl.filter.(*fuseLevel)
	src := []*level{lvl}
	nblocks := vqfBlocks(cfg, fl.srcKind, fl.Count(), lvl.budget)
	if nl := rebuildVQF(cfg, fl.srcKind, lvl.budget, nblocks, fl.foldBlocks, src); nl != nil {
		return nl
	}
	return buildFuseLevel(fuseSpec{fl.srcKind, fl.fpBits, fl.foldBlocks, lvl.budget}, src)
}

// FreezeNow freezes every shard, summing the per-shard results.
func (f *Sharded) FreezeNow() FreezeResult {
	var res FreezeResult
	for _, s := range f.Shards() {
		r := s.FreezeNow()
		res.LevelsBefore += r.LevelsBefore
		res.LevelsAfter += r.LevelsAfter
		res.LevelsFrozen += r.LevelsFrozen
		res.FuseLevels += r.FuseLevels
	}
	return res
}

// clockBase anchors monoNow. time.Since reads the monotonic clock, so a
// step of the wall clock neither delays nor hastens an auto-freeze.
var clockBase = time.Now()

// monoNow returns monotonic nanoseconds since clockBase, plus one so that
// no stamp is the zero "unknown" value.
func monoNow() int64 { return int64(time.Since(clockBase)) + 1 }

// stampFrozen records when a level left the insert path (creation for
// merged/fuse/thawed levels, growth time for a superseded newest level).
func stampFrozen(l *level) { l.frozenAt.Store(monoNow()) }
