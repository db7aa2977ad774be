package core

import "vqf/internal/telemetry"

// Rare-event hooks. A filter records structured diagnostics into an
// attached telemetry.Ring: seqlock retry-exhaustion fallbacks here, claim
// stalls in the sharded batch pool (sharded.go). The ring pointer is
// plain (not atomic): attach it right after construction, before the
// filter sees traffic — the same publication contract as every other
// constructor-time option. A nil ring (the default) costs one predicted
// branch on the paths that would record, all of which are already rare.

// SetEventRing attaches r as the filter's rare-event sink. Call before
// sharing the filter across goroutines.
func (f *CFilter[B, F, P]) SetEventRing(r *telemetry.Ring) { f.ring = r }

func (f *CFilter[B, F, P]) fallbackEvent(b uint64, retries uint) {
	if f.ring != nil {
		f.ring.Record(telemetry.EvSeqlockFallback, b, uint64(retries), 0)
	}
}

// stallEvent records a sharded-batch pool that finished with idle workers:
// the shard partition was too skewed (or too small) to feed every claimed
// worker. active is the number of workers that claimed at least one
// non-empty shard segment out of a pool of w, over a batch of keys keys.
func stallEvent(ring *telemetry.Ring, active, w, keys int) {
	if ring != nil && active < w {
		ring.Record(telemetry.EvShardClaimStall, uint64(w-active), uint64(w), uint64(keys))
	}
}
