package elastic

import (
	"vqf/internal/core"
	"vqf/internal/stats"
)

// Sharded is a sharded thread-safe elastic filter: a power-of-two array of
// independent concurrent cascades, selected by the top hash bits. It is
// core.Sharded over *CFilter shards — the same selector, routing and
// aggregates the sharded core filters use (the cascade levels consume only
// lower hash bits) — plus the cascade-only views below. Each shard grows
// independently, so a growth in one shard never serializes inserts in
// another; with a uniform hash the shards stay within a few percent of each
// other in depth and load.
//
// Each shard's FPR is bounded by the configured budget ε, and a query
// probes exactly one shard, so the sharded cascade's FPR is bounded by the
// same ε — no budget splitting across shards is needed.
type Sharded struct {
	*core.Sharded[*CFilter]
	cfg Config
}

// NewSharded creates a sharded concurrent cascade with nshards shards
// (rounded up to a power of two, clamped to [1, 256]). cfg.InitialSlots is
// the whole filter's initial budget; each shard starts at its 1/nshards
// share (floored at one block) and grows on its own schedule.
func NewSharded(cfg Config, nshards int) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sh, err := core.NewShardedOf(nshards, func(n int) (*CFilter, error) {
		shardCfg := cfg
		shardCfg.InitialSlots = max(cfg.InitialSlots/uint64(n), minSlotsPerShard)
		return NewConcurrent(shardCfg)
	})
	if err != nil {
		return nil, err
	}
	return &Sharded{Sharded: sh, cfg: cfg}, nil
}

// minSlotsPerShard keeps a shard's first level at least one 8-bit block even
// when the configured initial budget divides below it.
const minSlotsPerShard = 48

// NumLevels returns the deepest shard's cascade depth (shards grow
// independently, so depths can differ by a level around growth points).
func (f *Sharded) NumLevels() int {
	depth := 0
	for _, s := range f.Shards() {
		depth = max(depth, s.NumLevels())
	}
	return depth
}

// TargetFPR returns the configured total false-positive budget ε, which
// every shard — and therefore every query — honors.
func (f *Sharded) TargetFPR() float64 { return f.cfg.TargetFPR }

// ShardSnapshots returns one aggregate cascade snapshot per shard, in
// shard order — the per-shard heat view (each shard's count, load, and op
// counters) behind the sharded imbalance metric.
func (f *Sharded) ShardSnapshots() []stats.Snapshot {
	out := make([]stats.Snapshot, f.NumShards())
	for i, s := range f.Shards() {
		out[i] = s.Snapshot().Aggregate
	}
	return out
}

// Snapshot returns the sharded cascade's structural snapshot. Levels[i]
// merges level i across every shard that has one — shards share a config,
// so level i has the same geometry in every shard and the merge is exact
// as long as the shards have compacted in lockstep (CompactNow compacts
// all shards together; independent auto-triggered compactions can briefly
// misalign level indices, making the per-level merge approximate until the
// shards converge). The aggregate gauges are always exact. The aggregate
// follows the CascadeSnapshot convention: FPRFullLoad is the configured
// budget ε, FPREstimate the sum of merged per-level estimates, and
// Occupancy the newest level's merged distribution.
func (f *Sharded) Snapshot() stats.CascadeSnapshot {
	subs := make([]stats.CascadeSnapshot, f.NumShards())
	depth := 0
	for i, s := range f.Shards() {
		subs[i] = s.Snapshot()
		if n := len(subs[i].Levels); n > depth {
			depth = n
		}
	}
	cs := stats.CascadeSnapshot{Levels: make([]stats.Snapshot, depth)}
	for _, sub := range subs {
		cs.Compactions += sub.Compactions
		cs.CompactionLevelsMerged += sub.CompactionLevelsMerged
		cs.Freezes += sub.Freezes
		cs.FreezeLevelsFrozen += sub.FreezeLevelsFrozen
		cs.Thaws += sub.Thaws
		cs.BudgetReclaimed += sub.BudgetReclaimed
	}
	var fprSum float64
	for lvl := 0; lvl < depth; lvl++ {
		var merged stats.Snapshot
		for _, sub := range subs {
			if lvl < len(sub.Levels) {
				merged = merged.Merge(sub.Levels[lvl])
			}
		}
		cs.Levels[lvl] = merged
		fprSum += merged.FPREstimate
	}
	newest := cs.Levels[depth-1]
	cs.Aggregate = stats.Snapshot{
		Count:       f.Count(),
		Capacity:    f.Capacity(),
		SizeBytes:   f.SizeBytes(),
		FPRFullLoad: f.cfg.TargetFPR,
		FPREstimate: fprSum,
		Occupancy:   newest.Occupancy,
		Ops:         f.Stats(),
	}
	if cs.Aggregate.Capacity > 0 {
		cs.Aggregate.LoadFactor = float64(cs.Aggregate.Count) / float64(cs.Aggregate.Capacity)
	}
	if cs.Aggregate.Count > 0 {
		cs.Aggregate.BitsPerItem = float64(cs.Aggregate.SizeBytes) * 8 / float64(cs.Aggregate.Count)
	}
	return cs
}
