package elastic

import (
	"io"
	"runtime"
	"sync/atomic"
)

// CFilter is the thread-safe elastic VQF. The level list is immutable and
// published through an atomic pointer: readers (Contains, Remove, Snapshot)
// load the current list and work on it without any lock, while growth and
// the structural ops build a new list and swap the pointer under the
// fence's growMu (see cascade.go). A reader holding a pre-swap list still
// sees every level it needs — levels are never mutated in place, and a
// replaced level stays intact until unreferenced — so a lookup concurrent
// with growth can at worst miss keys inserted into the brand-new level
// after its load, the same linearization any concurrent map allows.
// Per-level thread safety is the core CFilter8/16 machinery: per-block spin
// locks for writers, seqlock-validated optimistic reads for lookups.
type CFilter struct {
	cascade
	levels atomic.Pointer[[]*level]
	// compacting and freezing gate the automatic triggers so they never
	// stack background goroutines: one for compactions, one shared by
	// freezes and thaws. Explicit CompactNow/FreezeNow calls serialize on
	// growMu independently of them.
	compacting atomic.Bool
	freezing   atomic.Bool
}

// NewConcurrent creates an empty thread-safe cascade with one level.
func NewConcurrent(cfg Config) (*CFilter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Concurrent = true
	f := &CFilter{}
	f.cfg, f.hooks, f.fence, f.sched = cfg, f, &fence{}, 1
	ls := []*level{newLevel(cfg, 0)}
	f.levels.Store(&ls)
	return f, nil
}

func (f *CFilter) current() []*level { return *f.levels.Load() }

// WriteTo serializes the cascade in the sequential Filter's format: Read
// loads it back as a Filter. The caller must keep inserts and removes out;
// WriteTo first waits for the automatic structural ops already dispatched,
// so the stream and the filter it leaves behind hold the same levels.
func (f *CFilter) WriteTo(w io.Writer) (int64, error) {
	for f.compacting.Load() || f.freezing.Load() {
		runtime.Gosched()
	}
	return f.cascade.WriteTo(w)
}
func (f *CFilter) publish(ls []*level) { f.levels.Store(&ls) }

// dispatch runs an automatic op on a background goroutine, unless one of
// its kind is already running. An auto-freeze that would plan nothing
// spawns nothing.
func (f *CFilter) dispatch(op opKind) {
	gate := &f.freezing
	switch op {
	case opCompact:
		gate = &f.compacting
	case opAutoFreeze:
		if g := autoFreezeGate(f.cfg); len(planFreezes(f.current(), &g)) == 0 {
			return
		}
	}
	if !gate.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer gate.Store(false)
		f.run(op)
	}()
}

// Insert adds the pre-hashed key h. Safe for concurrent use. Writers that
// concurrently pass the trigger check can each land one item, so a level
// may exceed its trigger by at most the number of in-flight inserts — a
// relative FPR overshoot of O(writers/trigger), negligible against the
// slack the power-of-two block rounding leaves (and noted in the DESIGN
// budget derivation).
func (f *CFilter) Insert(h uint64) bool {
	for {
		ls := *f.levels.Load()
		lvl := ls[len(ls)-1]
		ok, sealed := f.insertLevel(lvl, h)
		if ok {
			return true
		}
		if sealed {
			continue // a structural op retired lvl; reload the list
		}
		if !f.grow(lvl) {
			return false
		}
	}
}

// insertLevel lands h in lvl unless lvl has been sealed as a structural
// op's source. An inserter can hold a stale level list whose newest entry
// has since been demoted by growth and selected as a source — and churn can
// pull such a level's count back under its trigger, re-opening the fast
// path — so an unchecked raw insert could land in a level the rebuild has
// already iterated and be dropped at the swap. The removeMu read side
// orders this exactly against the op's first barrier (which sets sealed):
// either the whole section runs before the barrier, in which case the
// off-lock rebuild is guaranteed to observe the landed insert, or the
// sealed check fires and the caller retries against the current list.
// sealed is reported true only for that retry case.
func (f *CFilter) insertLevel(lvl *level, h uint64) (ok, sealed bool) {
	f.fence.removeMu.RLock()
	defer f.fence.removeMu.RUnlock()
	if lvl.sealed.Load() {
		return false, true
	}
	if lvl.filter.Count() >= lvl.trigger {
		return false, false
	}
	return lvl.filter.Insert(h), false
}

// Contains reports whether h may be in the cascade. Safe for concurrent
// use and lock-free: one atomic pointer load, then each level's optimistic
// block reads, newest-first with a short-circuit on hit.
func (f *CFilter) Contains(h uint64) bool {
	ls := *f.levels.Load()
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].filter.Contains(h) {
			return true
		}
	}
	return false
}

// Remove deletes one previously inserted instance of h, searching levels
// newest-first. Safe for concurrent use, including concurrent with a
// structural op: the read side of removeMu brackets the whole operation so
// the op's barriers order every remove entirely before or entirely after
// its seal, and a remove that lands in one of the op's sources appends h
// to the remove log, which the op reconciles against the replacement level
// before publishing it — a racing remove can therefore never resurrect in
// the replacement.
func (f *CFilter) Remove(h uint64) bool {
	f.fence.removeMu.RLock()
	st := f.fence.compact.Load()
	ls := *f.levels.Load()
	hit := -1
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].filter.Remove(h) {
			hit = i
			if st != nil {
				if _, frozen := st.frozen[ls[i]]; frozen {
					st.mu.Lock()
					st.log = append(st.log, h)
					st.mu.Unlock()
				}
			}
			break
		}
	}
	f.fence.removeMu.RUnlock()
	if hit < 0 {
		return false
	}
	f.removedFrom(ls, hit)
	return true
}
