package elastic

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// Structural ops. Growth, compaction, freeze and thaw all change the level
// list, and both cascade filters run them through the code in this file.
// Compaction, freeze and thaw are each a planner plus build functions
// (compact.go, freeze.go); one routine, apply, seals the planned sources,
// builds the replacements, reconciles them and splices them into the list.
// The sequential Filter and the concurrent CFilter differ in three places
// only:
//
//   - the fence: nil on Filter, whose ops run inline between two calls so
//     nothing can race them; on CFilter, growMu serializing the ops plus
//     two removeMu write barriers — the first seals the sources and starts
//     the remove log, the second drains in-flight removes so apply can
//     reconcile the log before the swap;
//   - hooks.publish: plain assignment of the new list, or
//     atomic.Pointer.Store;
//   - hooks.dispatch of an automatic op: inline, or one background
//     goroutine behind a CAS gate.

// opKind names a structural op that goes through apply.
type opKind uint8

const (
	opCompact    opKind = iota
	opFreeze            // FreezeNow: every qualifying run
	opAutoFreeze        // the AutoFreeze trigger: runs that pass autoFreezeGate
	opThaw
)

// opTelemetry is each op's trace task and start/finish event kinds.
var opTelemetry = [...]struct {
	task          string
	start, finish telemetry.EventKind
}{
	opCompact:    {"vqf.elastic.compact", telemetry.EvCompactStart, telemetry.EvCompactFinish},
	opFreeze:     {"vqf.elastic.freeze", telemetry.EvFreezeStart, telemetry.EvFreezeFinish},
	opAutoFreeze: {"vqf.elastic.freeze", telemetry.EvFreezeStart, telemetry.EvFreezeFinish},
	opThaw:       {"vqf.elastic.thaw", telemetry.EvThawStart, telemetry.EvThawFinish},
}

// plan is one planned splice: the contiguous sources ending at level index
// hi (exclusive) and how to replace them. A drop plan splices all-empty
// sources out without replacement and retires their budgets into the
// reclaimed pool; otherwise build returns the replacement, or nil when it
// could not be built and the sources stay. An op's plans come in
// descending hi order with disjoint sources, so splicing them in order
// keeps earlier indices valid.
type plan struct {
	hi    int
	sub   []*level
	drop  bool
	build func() *level
}

// hooks are the per-type halves of the shared cascade state: reading and
// publishing the level list, and dispatching an automatic op.
type hooks interface {
	current() []*level
	publish(ls []*level)
	dispatch(op opKind)
}

// cascade is the state both cascade filters share.
type cascade struct {
	cfg   Config
	ring  *telemetry.Ring
	fence *fence
	hooks hooks
	// sched is the next schedule index growth will build; guarded by the
	// fence. It only ever increases: compaction shrinks the level LIST but
	// never reuses a schedule slot, which keeps the budget invariant exact —
	// live levels and the reclaimed pool hold Σ_{i<sched} εᵢ between them
	// (merges and freezes preserve budget sums) and future levels get
	// Σ_{i≥sched} εᵢ, totalling ε.
	sched int
	// Lifetime totals for telemetry.
	compactions      atomic.Uint64
	compactionLevels atomic.Uint64
	freezes          atomic.Uint64
	freezeLevels     atomic.Uint64
	thaws            atomic.Uint64
	// reclaimed holds retired FPR budget as float64 bits; written only
	// inside a structural op, read lock-free (see Reclaimed).
	reclaimed atomic.Uint64
}

// fence orders a CFilter's structural ops against its inserts and removes.
// The sequential Filter's fence is nil, and every method is then a no-op.
type fence struct {
	// growMu serializes growth and the structural ops; insert and lookup
	// paths never take it.
	growMu sync.Mutex
	// removeMu orders removes, and inserts landing in a level, against an
	// op's two barriers: they run under the read side, and an op takes the
	// write side once to seal its sources and publish its remove log (so
	// later removes log themselves) and once to drain in-flight removes
	// before reconciling and swapping the level list. Contains never
	// touches it.
	removeMu sync.RWMutex
	// compact, while non-nil, is the in-flight op's remove-log state.
	compact atomic.Pointer[compactState]
}

func (fc *fence) lock() {
	if fc != nil {
		fc.growMu.Lock()
	}
}

func (fc *fence) unlock() {
	if fc != nil {
		fc.growMu.Unlock()
	}
}

// seal is the first barrier: it marks every planned source sealed and
// publishes them as the in-flight op's source set. Sealing inside the
// barrier shuts the insert fast path on every source: a stale inserter
// either fully lands before this critical section (and the build sees its
// instance) or observes sealed and retries; see CFilter.insertLevel.
func (fc *fence) seal(plans []plan) *compactState {
	if fc == nil {
		return nil
	}
	st := &compactState{frozen: map[*level]struct{}{}}
	for _, p := range plans {
		for _, l := range p.sub {
			st.frozen[l] = struct{}{}
		}
	}
	fc.removeMu.Lock()
	for l := range st.frozen {
		l.sealed.Store(true)
	}
	fc.compact.Store(st)
	fc.removeMu.Unlock()
	return st
}

// swap is the second barrier: splice runs with every remove drained and
// receives the removes logged since seal; the op's log is then retired.
func (fc *fence) swap(st *compactState, splice func(log []uint64)) {
	if fc == nil {
		splice(nil)
		return
	}
	fc.removeMu.Lock()
	splice(st.log)
	fc.compact.Store(nil)
	fc.removeMu.Unlock()
}

// compactState is the shared state of one in-flight concurrent structural
// op: the set of source levels being rebuilt and the log of removes that
// hit them after the seal barrier. frozen is written before the state is
// published and read-only afterwards; log appends run under mu and are
// drained only after the op's second removeMu write barrier, when no
// remover can still be appending.
type compactState struct {
	frozen map[*level]struct{}
	mu     sync.Mutex
	log    []uint64
}

// reconcile makes the rebuilt level dst agree with its source levels at
// quiescence, given the hashes removed from the sources during the build.
// For each distinct logged hash it compares dst's instance count at the
// hash's candidate pair against the sources' surviving instances across all
// source blocks that fold onto that pair (b ≡ p1 or p2 mod dst's block
// count — the xor trick makes the pair closed under mask truncation, see
// internal/core/iterate.go), and removes the surplus. Count differencing is
// order-independent, so duplicate log entries, fingerprint collisions
// between distinct hashes, and removes the builder had already observed all
// resolve to a zero diff.
func reconcile(dst *level, srcs []*level, log []uint64) {
	if len(log) == 0 {
		return
	}
	dstBlocks := dst.filter.NumBlocks()
	seen := make(map[uint64]struct{}, len(log))
	for _, h := range log {
		if _, dup := seen[h]; dup {
			continue
		}
		seen[h] = struct{}{}
		p1, p2 := dst.filter.CandidateBlocks(h)
		got := dst.filter.CountAtBlock(p1, h)
		if p2 != p1 {
			got += dst.filter.CountAtBlock(p2, h)
		}
		var want uint64
		for _, src := range srcs {
			srcBlocks := src.filter.NumBlocks()
			for b := p1; b < srcBlocks; b += dstBlocks {
				want += src.filter.CountAtBlock(b, h)
			}
			if p2 != p1 {
				for b := p2; b < srcBlocks; b += dstBlocks {
					want += src.filter.CountAtBlock(b, h)
				}
			}
		}
		for ; got > want; got-- {
			dst.filter.Remove(h)
		}
	}
}

// opResult summarizes one apply: the list lengths around it, the source
// levels replaced or dropped, and the replacement levels built.
type opResult struct{ before, after, replaced, built int }

// apply plans op against the current level list and carries the plans out:
// seal the sources, build the replacements off every lock, then at the
// second barrier reconcile each replacement with the removes logged during
// the build, splice, and publish. Contains never blocks on it: it works on
// whichever list it loaded, and source levels stay intact until
// unreferenced.
func (c *cascade) apply(op opKind) opResult {
	c.fence.lock()
	defer c.fence.unlock()
	ls := c.hooks.current()
	res := opResult{before: len(ls), after: len(ls)}
	plans := c.plan(op, ls)
	if len(plans) == 0 {
		return res
	}
	tel := opTelemetry[op]
	start := time.Now()
	live := sumCounts(ls[:len(ls)-1])
	if op != opCompact {
		live = 0
		for _, p := range plans {
			live += sumCounts(p.sub)
		}
	}
	c.ring.Record(tel.start, uint64(len(ls)), live, 0)
	end := telemetry.Task(tel.task)

	st := c.fence.seal(plans)
	built := make([]*level, len(plans))
	for i, p := range plans {
		if p.drop {
			continue
		}
		if built[i] = p.build(); built[i] != nil {
			setLevelRing(built[i], c.ring)
			stampFrozen(built[i])
		}
	}

	next := ls
	c.fence.swap(st, func(log []uint64) {
		next = append([]*level(nil), ls...)
		for i, p := range plans {
			lo := p.hi - len(p.sub)
			switch {
			case p.drop:
				// Empty at plan time stays empty: the sources take no
				// inserts, and a remove cannot hit a level with no
				// surviving fingerprints, so nothing needs reconciling.
				for _, l := range p.sub {
					c.addReclaimed(l.budget)
				}
				next = append(next[:lo], next[p.hi:]...)
			case built[i] != nil:
				reconcile(built[i], p.sub, log)
				next = append(next[:lo+1], next[p.hi:]...)
				next[lo] = built[i]
				res.built++
			default:
				continue // the rebuild could not fit; the sources stay live
			}
			res.replaced += len(p.sub)
		}
		if res.replaced > 0 {
			c.hooks.publish(next)
			c.count(op, res.replaced)
		}
	})
	end()
	res.after = len(next)
	c.ring.Record(tel.finish, uint64(res.replaced), uint64(res.after), uint64(time.Since(start)))
	return res
}

// plan returns op's plans against ls.
func (c *cascade) plan(op opKind, ls []*level) []plan {
	switch op {
	case opCompact:
		return planCompaction(c.cfg, ls)
	case opFreeze:
		return planFreezes(ls, nil)
	case opAutoFreeze:
		g := autoFreezeGate(c.cfg)
		return planFreezes(ls, &g)
	}
	return planThaws(c.cfg, ls)
}

// count adds an applied op to the lifetime totals: one compaction or
// freeze covering n source levels, or n thawed levels.
func (c *cascade) count(op opKind, n int) {
	switch op {
	case opCompact:
		c.compactions.Add(1)
		c.compactionLevels.Add(uint64(n))
	case opThaw:
		c.thaws.Add(uint64(n))
	default:
		c.freezes.Add(1)
		c.freezeLevels.Add(uint64(n))
	}
}

// run applies op. A thaw repeats until a pass thaws nothing, so a level
// that crossed its threshold while a concurrent pass was building (and
// whose trigger lost the CAS gate) is not left behind.
func (c *cascade) run(op opKind) {
	if op != opThaw {
		c.apply(op)
		return
	}
	for c.apply(opThaw).replaced > 0 {
	}
}

// grow appends the next scheduled level if seen is still the newest level;
// on CFilter a concurrent grower who got there first makes this a no-op.
// The identity check is against the newest level pointer, not the list
// length: compaction can SHRINK the list while preserving the newest level,
// and a length check would then mistake the shrink for someone else's
// growth. It returns false only at the MaxLevels/schedule backstop.
func (c *cascade) grow(seen *level) bool {
	c.fence.lock()
	ls := c.hooks.current()
	if ls[len(ls)-1] != seen {
		c.fence.unlock()
		return true // someone else grew; the caller retries against the new list
	}
	if len(ls) >= MaxLevels || c.sched >= schedCap {
		c.fence.unlock()
		return false
	}
	ev := telemetry.EvElasticGrow
	if c.fence != nil {
		ev = telemetry.EvElasticSwap // the concurrent copy-and-swap
	}
	next := append(ls[:len(ls):len(ls)], buildLevel(c.cfg, c.sched, c.ring, ev))
	c.sched++
	stampFrozen(seen) // the superseded newest level just left the insert path
	c.hooks.publish(next)
	c.fence.unlock()
	c.autoOps(false)
	return true
}

// removedFrom runs the automatic triggers after a remove hit level i of ls,
// if that level is a frozen (non-newest) one that just got sparser.
func (c *cascade) removedFrom(ls []*level, i int) {
	if i < len(ls)-1 {
		fl, ok := ls[i].filter.(*fuseLevel)
		c.autoOps(ok && fl.needsThaw())
	}
}

// autoOps runs the automatic triggers in their fixed order: thaw (when a
// remove pushed a fuse level past its tombstone threshold), compaction,
// freeze. Each predicate reads the current list, so on the sequential
// filter it sees the previous inline op's result.
func (c *cascade) autoOps(thaw bool) {
	if thaw {
		c.hooks.dispatch(opThaw)
	}
	if c.compactDue(c.hooks.current()) {
		c.hooks.dispatch(opCompact)
	}
	if c.cfg.AutoFreeze {
		c.hooks.dispatch(opAutoFreeze)
	}
}

// compactDue is the automatic compaction trigger: at least
// CompactMinLevels levels, and the frozen levels loaded at or below
// CompactMaxLoad. Compacting shrinks the level count, so the next trigger
// needs regrowth — the policy cannot thrash.
func (c *cascade) compactDue(ls []*level) bool {
	if c.cfg.CompactMinLevels == 0 || len(ls) < c.cfg.CompactMinLevels {
		return false
	}
	frozen := ls[:len(ls)-1]
	return float64(sumCounts(frozen)) <= c.cfg.CompactMaxLoad*float64(sumCapacities(frozen))
}

// CompactNow merges every qualifying run of frozen levels (see compact.go)
// and returns how many levels were merged away — zero when nothing
// qualified, such as a cascade still growing or runs whose geometry
// constraints could not be met. On CFilter readers stay lock-free and
// writers keep writing; inserts block only if they need to grow the
// cascade meanwhile.
func (c *cascade) CompactNow() CompactionResult {
	r := c.apply(opCompact)
	return CompactionResult{LevelsBefore: r.before, LevelsAfter: r.after, LevelsMerged: r.replaced}
}

// FreezeNow rebuilds every qualifying run of frozen VQF levels into
// immutable fuse levels (see freeze.go). Runs that cannot meet their budget
// in the fuse representation stay as they are; all-empty runs are dropped
// and their budgets retired into the reclaimed pool.
func (c *cascade) FreezeNow() FreezeResult {
	r := c.apply(opFreeze)
	return FreezeResult{LevelsBefore: r.before, LevelsAfter: r.after, LevelsFrozen: r.replaced, FuseLevels: r.built}
}

// addReclaimed retires budget into the reclaimed pool.
func (c *cascade) addReclaimed(b float64) {
	c.reclaimed.Store(math.Float64bits(math.Float64frombits(c.reclaimed.Load()) + b))
}

// Reclaimed returns the total FPR budget retired from dropped (emptied)
// levels. The cascade invariant is
//
//	Σ live level budgets + Reclaimed + ε·rˢᶜʰᵉᵈ = ε
//
// — budgets move between the three pools (future schedule → live levels at
// growth, live → reclaimed at empty-drop) but are never created or reused.
func (c *cascade) Reclaimed() float64 { return math.Float64frombits(c.reclaimed.Load()) }

// SetEventRing attaches r as the cascade's rare-event sink. Call before the
// filter sees traffic.
func (c *cascade) SetEventRing(r *telemetry.Ring) {
	c.ring = r
	for _, lvl := range c.hooks.current() {
		setLevelRing(lvl, r)
	}
}

// Count returns the number of items stored across all levels.
func (c *cascade) Count() uint64 { return sumCounts(c.hooks.current()) }

// Capacity returns the total allocated fingerprint slots across all levels.
func (c *cascade) Capacity() uint64 { return sumCapacities(c.hooks.current()) }

// SizeBytes returns the cascade's memory footprint.
func (c *cascade) SizeBytes() uint64 { return sumSizes(c.hooks.current()) }

// NumLevels returns the current cascade depth.
func (c *cascade) NumLevels() int { return len(c.hooks.current()) }

// TargetFPR returns the configured total false-positive budget ε.
func (c *cascade) TargetFPR() float64 { return c.cfg.TargetFPR }

// Stats returns operation counters summed over all levels; on CFilter see
// the core concurrent filters for the consistency contract.
func (c *cascade) Stats() stats.OpCounts { return sumStats(c.hooks.current()) }

// Snapshot returns the cascade's structural snapshot: an aggregate plus one
// per-level snapshot, newest level last. Safe alongside live CFilter
// traffic: the level list is an immutable copy and each level's occupancy
// scan uses the optimistic block protocol.
func (c *cascade) Snapshot() stats.CascadeSnapshot {
	cs := snapshotLevels(c.cfg.TargetFPR, c.hooks.current())
	cs.Compactions = c.compactions.Load()
	cs.CompactionLevelsMerged = c.compactionLevels.Load()
	cs.Freezes = c.freezes.Load()
	cs.FreezeLevelsFrozen = c.freezeLevels.Load()
	cs.Thaws = c.thaws.Load()
	cs.BudgetReclaimed = c.Reclaimed()
	return cs
}
