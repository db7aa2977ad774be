package elastic

import (
	"time"

	"vqf/internal/telemetry"
)

// Rare-event hooks: cascade growth is the elastic filter's defining latency
// hazard (a multi-millisecond allocation on the insert path), so each
// growth records a structured event — which level was appended, how many
// slots it allocated, and how long the build took — and is wrapped in a
// runtime/trace task so an execution trace shows exactly which goroutine
// paid for it. The ring also propagates into each level's concurrent core
// filter, so seqlock fallbacks inside the cascade land in the same stream.

// setLevelRing forwards the ring to a level's core filter when that filter
// has event hooks (the concurrent variants; sequential cores never fall
// back and take no ring).
func setLevelRing(lvl *level, r *telemetry.Ring) {
	if h, ok := lvl.filter.(interface{ SetEventRing(*telemetry.Ring) }); ok {
		h.SetEventRing(r)
	}
}

// buildLevel is newLevel plus observability: a trace task spanning the
// build, and a growth event (A=level index, B=allocated slots, C=build ns)
// in ring. kind distinguishes the sequential append (EvElasticGrow) from
// the concurrent copy-and-swap (EvElasticSwap).
func buildLevel(cfg Config, i int, ring *telemetry.Ring, kind telemetry.EventKind) *level {
	end := telemetry.Task("vqf.elastic.grow")
	start := time.Now()
	lvl := newLevel(cfg, i)
	d := time.Since(start)
	end()
	ring.Record(kind, uint64(i), lvl.filter.Capacity(), uint64(d))
	setLevelRing(lvl, ring)
	return lvl
}
