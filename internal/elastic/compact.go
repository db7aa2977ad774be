package elastic

import "vqf/internal/core"

// Cascade compaction. Growth only ever appends levels, so after
// insert/remove churn a cascade carries many sparse frozen levels and every
// negative lookup pays one probe (≈ one cache miss) per level. Compaction
// walks runs of old levels through the core fingerprint iterator
// (IterateHashes) and rebuilds each run into one right-sized level, cutting
// the per-negative-lookup level count while preserving membership exactly.
//
// FPR accounting: the merged level's budget is the SUM of the merged
// levels' budgets εm = Σ εᵢ, so the cascade-wide invariant Σ budgets ≤ ε is
// untouched. The merged level is sized so that its realized FPR
// (geomFPR·load) stays within εm: it gets at least live·geomFPR/εm slots,
// and at least live/FillThreshold so the rebuild inserts cannot run out of
// two-choice headroom.
//
// Geometry constraints: a run merges only contiguous same-kind levels
// (fingerprints of different widths cannot mix in one block array), and the
// merged block count must not exceed any source level's (canonical hashes
// are only exchangeable across xor-linked filters when the destination mask
// is a suffix of every source mask; see internal/core/iterate.go). When the
// full run cannot satisfy that, the oldest (smallest) levels are dropped
// from the run until it fits or falls below two members.
//
// This file holds the planner and the rebuild; apply (cascade.go) carries
// the plans out for both cascade filters.

// schedCap bounds the schedule index. Compaction lets the level LIST stay
// short while the schedule index keeps advancing, so the MaxLevels check no
// longer bounds it; the cap exists for the uint16 serialization field and
// as a runaway backstop (the ever-shrinking per-level budgets make the
// allocation sizes explode long before it is reached).
const schedCap = 1 << 12

// CompactionResult summarizes one CompactNow call.
type CompactionResult struct {
	// LevelsBefore and LevelsAfter are the cascade depths around the call.
	LevelsBefore int
	LevelsAfter  int
	// LevelsMerged is the number of source levels rebuilt into merged
	// levels (0 when no run qualified; LevelsBefore − LevelsAfter +
	// number of merged levels produced).
	LevelsMerged int
}

// compactRun is one contiguous candidate range [lo, hi) of the level list.
type compactRun struct{ lo, hi int }

// vqfRuns returns the maximal runs of at least minLen contiguous same-kind
// VQF levels among the frozen levels ls[:len(ls)-1] whose members all pass
// the gate (nil accepts everything). The newest level still receives
// inserts and is never a source; immutable fuse levels cannot be rebuilt by
// reinsertion and break runs.
func vqfRuns(ls []*level, minLen int, gate *freezeGate) []compactRun {
	var runs []compactRun
	frozen := len(ls) - 1
	for lo := 0; lo < frozen; {
		if !vqfKind(ls[lo].kind) || !gate.admits(ls[lo]) {
			lo++
			continue
		}
		hi := lo + 1
		for hi < frozen && ls[hi].kind == ls[lo].kind && gate.admits(ls[hi]) {
			hi++
		}
		if hi-lo >= minLen {
			runs = append(runs, compactRun{lo, hi})
		}
		lo = hi
	}
	return runs
}

// planSegments partitions each run into segments newest first: fit plans
// the longest usable suffix of what is left of the run (reporting its
// sources in plan.sub), and the rest is planned the same way. A churned
// cascade thus collapses to one rebuilt level per geometry class instead of
// stranding a head of sparse little levels — typically the oldest ones,
// whose small block counts bound the suffix's destination geometry — that
// every negative lookup would keep probing. Plans come out in descending
// hi order with disjoint sources.
func planSegments(ls []*level, runs []compactRun, minLen int, fit func(seg []*level) (plan, bool)) []plan {
	var plans []plan
	for i := len(runs) - 1; i >= 0; i-- {
		for hi := runs[i].hi; hi-runs[i].lo >= minLen; {
			p, ok := fit(ls[runs[i].lo:hi])
			if !ok {
				break
			}
			p.hi = hi
			plans = append(plans, p)
			hi -= len(p.sub)
		}
	}
	return plans
}

// shrink drops the oldest (smallest, and therefore most constraining)
// levels from seg until try accepts the rest; ok is false when no suffix of
// at least minLen levels fits.
func shrink(seg []*level, minLen int, try func(sub []*level) (plan, bool)) (p plan, ok bool) {
	for ; len(seg) >= minLen; seg = seg[1:] {
		if p, ok = try(seg); ok {
			p.sub = seg
			return p, true
		}
	}
	return plan{}, false
}

// runStats returns a run's live item count, summed budget and smallest
// block count (the cross-mask bound on any destination geometry).
func runStats(run []*level) (live uint64, budget float64, minBlocks uint64) {
	minBlocks = run[0].filter.NumBlocks()
	for _, l := range run {
		live += l.filter.Count()
		budget += l.budget
		minBlocks = min(minBlocks, l.filter.NumBlocks())
	}
	return live, budget, minBlocks
}

// vqfBlocks returns the block count of a rebuilt kind-geometry VQF level
// holding live items within budget: enough slots that the realized FPR at
// the live load stays within it, and enough fill headroom for the rebuild
// inserts.
func vqfBlocks(cfg Config, kind uint8, live uint64, budget float64) uint64 {
	spb, geom := vqfGeometry(kind)
	need := float64(live) / cfg.FillThreshold
	if byFPR := float64(live) * geom / budget; byFPR > need {
		need = byFPR
	}
	return core.BlocksFor(uint64(need), spb)
}

// rebuildVQF reinserts every source instance into a fresh VQF level of the
// given kind and budget with nblocks blocks. On an insert failure
// (block-pair overflow despite the fill headroom) the destination is
// doubled and rebuilt, up to maxBlocks; nil means the sources could not be
// rebuilt and stay as they are.
func rebuildVQF(cfg Config, kind uint8, budget float64, nblocks, maxBlocks uint64, srcs []*level) *level {
	spb, _ := vqfGeometry(kind)
	for ; nblocks <= maxBlocks; nblocks *= 2 {
		slots := nblocks * spb
		dst := newVQFLevel(cfg, kind, slots, budget, uint64(cfg.FillThreshold*float64(slots)))
		ok := true
		for _, src := range srcs {
			if ok = src.filter.IterateHashes(dst.filter.Insert); !ok {
				break
			}
		}
		if ok {
			return dst
		}
	}
	return nil
}

// planCompaction plans a merge of every run of at least two frozen
// same-kind VQF levels. The merged level is sized by vqfBlocks but may not
// exceed the smallest source's block count (the cross-mask soundness
// bound); a segment with no live items is dropped instead, since building
// a merged level for zero items would spuriously allocate.
func planCompaction(cfg Config, ls []*level) []plan {
	return planSegments(ls, vqfRuns(ls, 2, nil), 2, func(seg []*level) (plan, bool) {
		if sumCounts(seg) == 0 {
			return plan{sub: seg, drop: true}, true
		}
		return shrink(seg, 2, func(sub []*level) (plan, bool) {
			live, budget, minBlocks := runStats(sub)
			kind := sub[0].kind
			nblocks := vqfBlocks(cfg, kind, live, budget)
			return plan{build: func() *level {
				return rebuildVQF(cfg, kind, budget, nblocks, minBlocks, sub)
			}}, nblocks <= minBlocks
		})
	})
}

// CompactNow compacts every shard, summing the per-shard results.
func (f *Sharded) CompactNow() CompactionResult {
	var res CompactionResult
	for _, s := range f.Shards() {
		r := s.CompactNow()
		res.LevelsBefore += r.LevelsBefore
		res.LevelsAfter += r.LevelsAfter
		res.LevelsMerged += r.LevelsMerged
	}
	return res
}
