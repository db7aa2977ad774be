package elastic

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vqf/internal/telemetry"
	"vqf/internal/workload"
)

// fuseLevelCount returns how many of the cascade's levels are frozen fuse
// levels.
func fuseLevelCount(ls []*level) int {
	n := 0
	for _, l := range ls {
		if fuseKind(l.kind) {
			n++
		}
	}
	return n
}

func TestFreezeChurnedCascade(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := churn(t, f, 21, 30000, 6, 0.75)
	before := f.NumLevels()
	countBefore := f.Count()
	sizeBefore := f.SizeBytes()

	res := f.FreezeNow()
	if res.LevelsFrozen == 0 || res.FuseLevels == 0 {
		t.Fatalf("freeze retired nothing: %+v", res)
	}
	if res.LevelsBefore != before || res.LevelsAfter != f.NumLevels() {
		t.Fatalf("result depths %+v disagree with cascade %d -> %d", res, before, f.NumLevels())
	}
	if fuseLevelCount(f.levels) != res.FuseLevels {
		t.Fatalf("cascade has %d fuse levels, result says %d", fuseLevelCount(f.levels), res.FuseLevels)
	}
	if f.Count() != countBefore {
		t.Fatalf("count changed %d -> %d", countBefore, f.Count())
	}
	if f.SizeBytes() >= sizeBefore {
		t.Fatalf("freeze did not shrink the cascade: %d -> %d bytes", sizeBefore, f.SizeBytes())
	}
	for _, k := range live {
		if !f.Contains(k) {
			t.Fatalf("freeze lost key %#x", k)
		}
	}
	checkBudgetInvariant(t, &f.cascade)

	// Realized FPR over fresh never-inserted keys stays within the budget.
	probes := workload.NewStream(888).Keys(300000)
	fp := 0
	for _, k := range probes {
		if f.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(len(probes)); rate > cfg.TargetFPR {
		t.Fatalf("post-freeze FPR %g exceeds ε %g", rate, cfg.TargetFPR)
	}

	snap := f.Snapshot()
	if snap.Freezes != 1 || snap.FreezeLevelsFrozen != uint64(res.LevelsFrozen) {
		t.Fatalf("snapshot counters %d/%d, want 1/%d",
			snap.Freezes, snap.FreezeLevelsFrozen, res.LevelsFrozen)
	}

	// A second pass has nothing left to take: fuse levels are not sources.
	if res2 := f.FreezeNow(); res2.LevelsFrozen != 0 {
		t.Fatalf("second freeze found sources: %+v", res2)
	}
}

func TestFreezeRemoveSemantics(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 22, 30000, 6, 0.75)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}

	countBefore := f.Count()
	victim := live[0]
	if !f.Remove(victim) {
		t.Fatal("remove of frozen key failed")
	}
	if f.Count() != countBefore-1 {
		t.Fatalf("count %d after one remove, want %d", f.Count(), countBefore-1)
	}
	if f.Contains(victim) {
		t.Fatal("fully removed frozen key still answers true")
	}
	// The tombstone ledger caps removes at the frozen instance count: a
	// second remove of the same key must miss, not drive Count below truth.
	if f.Remove(victim) {
		t.Fatal("second remove of a single-instance key succeeded")
	}
	if f.Count() != countBefore-1 {
		t.Fatalf("count drifted to %d after capped re-remove", f.Count())
	}
	// The vault gates ghost removes at the canonical-collision rate (the
	// geometric term of the level's FPR), not at the much larger fuse
	// false-positive rate 2^-fpBits — a bare fuse filter would accept every
	// fuse FP as removable. Probe the frozen level directly (live VQF levels
	// keep the usual fingerprint-collision caveat) and check the ledger
	// stays exact: Count drops by precisely the accepted removes.
	var fl *fuseLevel
	var geomFPR float64
	for _, l := range f.levels {
		if cand, ok := l.filter.(*fuseLevel); ok {
			fl, geomFPR = cand, l.geomFPR
			break
		}
	}
	if fl == nil {
		t.Fatal("no fuse level in cascade")
	}
	canon := geomFPR - math.Pow(2, -float64(fl.fpBits))
	before := fl.Count()
	ghosts := workload.NewStream(777).Keys(200000)
	succ := 0
	for _, g := range ghosts {
		if fl.Remove(g) {
			succ++
		}
	}
	if fl.Count() != before-uint64(succ) {
		t.Fatalf("ledger drift: %d accepted removes moved count %d -> %d",
			succ, before, fl.Count())
	}
	if rate := float64(succ) / float64(len(ghosts)); rate > 4*canon+1e-4 {
		t.Fatalf("ghost removes accepted at %g, canonical-collision bound %g", rate, canon)
	}
}

func TestFreezeBatchParity(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 23, 30000, 6, 0.7)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}
	probes := append(append([]uint64(nil), live...), workload.NewStream(555).Keys(5000)...)
	got := f.ContainsBatch(probes, nil)
	for i, k := range probes {
		if got[i] != f.Contains(k) {
			t.Fatalf("batch answer %v for key %#x, single-key %v", got[i], k, !got[i])
		}
	}
}

func TestFreezeThaw(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 24, 20000, 5, 0.6)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}
	ring := telemetry.NewRing(256)
	f.SetEventRing(ring)
	// Remove well past the ¼ tombstone threshold of every frozen level; the
	// sequential filter thaws inline on the triggering remove.
	cut := len(live) / 2
	for _, k := range live[:cut] {
		if !f.Remove(k) {
			t.Fatalf("remove of live key %#x failed", k)
		}
	}
	if f.thaws.Load() == 0 {
		t.Fatal("tombstone pressure never thawed a level")
	}
	// Every thaw records a start and a finish event; the finishes' A
	// arguments sum to the thawed-level total and carry a duration.
	var starts, thawed uint64
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case telemetry.EvThawStart.String():
			starts++
		case telemetry.EvThawFinish.String():
			thawed += ev.A
			if ev.C == 0 {
				t.Fatalf("thaw finish event without a duration: %+v", ev)
			}
		}
	}
	if starts == 0 || thawed != f.thaws.Load() {
		t.Fatalf("thaw events: %d starts covering %d levels, counter says %d thawed", starts, thawed, f.thaws.Load())
	}
	for _, l := range f.levels {
		if fl, ok := l.filter.(*fuseLevel); ok && fl.needsThaw() {
			t.Fatal("a fuse level is still past the thaw threshold")
		}
	}
	for _, k := range live[cut:] {
		if !f.Contains(k) {
			t.Fatalf("thaw lost live key %#x", k)
		}
	}
	// Removed keys may surface as ordinary false positives, but no more
	// than that: a thaw bug that forgot tombstones would answer true for
	// (nearly) all of them.
	fp := 0
	for _, k := range live[:cut] {
		if f.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(cut); rate > 4*cfg.TargetFPR {
		t.Fatalf("removed keys answer true at %g after thaw", rate)
	}
	checkBudgetInvariant(t, &f.cascade)
}

// TestFreezeDegenerateCascades drives FreezeNow and CompactNow over the
// cascade shapes where there is nothing (or nothing sane) to do: both must
// be explicit no-ops — no panic, no level allocation — and an all-empty
// frozen run must drop into the reclaimed pool rather than build an empty
// fuse level.
func TestFreezeDegenerateCascades(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	t.Run("empty cascade", func(t *testing.T) {
		f, _ := New(cfg)
		if res := f.FreezeNow(); res.LevelsFrozen != 0 || res.LevelsBefore != 1 || res.LevelsAfter != 1 {
			t.Fatalf("freeze on empty cascade: %+v", res)
		}
		if res := f.CompactNow(); res.LevelsMerged != 0 {
			t.Fatalf("compact on empty cascade: %+v", res)
		}
		if f.NumLevels() != 1 || f.Count() != 0 {
			t.Fatalf("empty cascade mutated: %d levels, %d items", f.NumLevels(), f.Count())
		}
	})
	t.Run("single populated level", func(t *testing.T) {
		f, _ := New(cfg)
		for _, k := range workload.NewStream(25).Keys(100) {
			f.Insert(k)
		}
		if res := f.FreezeNow(); res.LevelsFrozen != 0 {
			t.Fatalf("froze the newest level: %+v", res)
		}
		if fuseLevelCount(f.levels) != 0 {
			t.Fatal("fuse level appeared in a single-level cascade")
		}
	})
	t.Run("all-empty frozen run", func(t *testing.T) {
		f, _ := New(cfg)
		keys := workload.NewStream(26).Keys(20000)
		for _, k := range keys {
			f.Insert(k)
		}
		if f.NumLevels() < 4 {
			t.Fatalf("setup produced %d levels", f.NumLevels())
		}
		for _, k := range keys {
			if !f.Remove(k) {
				t.Fatal("remove failed")
			}
		}
		depth := f.NumLevels()
		res := f.FreezeNow()
		if res.LevelsFrozen == 0 || res.FuseLevels != 0 {
			t.Fatalf("empty run should drop, not fuse: %+v", res)
		}
		if f.NumLevels() >= depth {
			t.Fatalf("dropping empties did not shrink: %d -> %d", depth, f.NumLevels())
		}
		if f.Reclaimed() == 0 {
			t.Fatal("dropped budgets were not reclaimed")
		}
		checkBudgetInvariant(t, &f.cascade)
	})
}

func TestFreezeSerializeRoundTrip(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	live := churn(t, f, 27, 30000, 6, 0.7)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}
	// Tombstone some frozen keys (below the thaw threshold) so the ledger
	// rides along in the stream.
	cut := len(live) / 10
	for _, k := range live[:cut] {
		if !f.Remove(k) {
			t.Fatal("remove failed")
		}
	}

	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.sched != f.sched || g.NumLevels() != f.NumLevels() || g.Count() != f.Count() {
		t.Fatalf("reload mismatch: sched %d/%d levels %d/%d count %d/%d",
			g.sched, f.sched, g.NumLevels(), f.NumLevels(), g.Count(), f.Count())
	}
	if g.Reclaimed() != f.Reclaimed() {
		t.Fatalf("reclaimed pool %g did not survive the round trip (want %g)", g.Reclaimed(), f.Reclaimed())
	}
	for i := range f.levels {
		if g.levels[i].budget != f.levels[i].budget || g.levels[i].kind != f.levels[i].kind {
			t.Fatalf("level %d parameters did not survive the round trip", i)
		}
	}
	for _, k := range live[cut:] {
		if !g.Contains(k) {
			t.Fatal("reloaded frozen cascade lost a key")
		}
	}
	// Removed keys may still be false positives (that is what ε buys), but
	// the reload must answer exactly as the original does.
	for _, k := range live[:cut] {
		if g.Contains(k) != f.Contains(k) {
			t.Fatalf("reload answer for removed key %#x diverged from original", k)
		}
	}
	// The reloaded ledger keeps enforcing exact removes and thaw pressure.
	if g.Remove(live[0]) {
		t.Fatal("reloaded ledger allowed re-removing a tombstoned key")
	}
	for _, k := range live[cut : len(live)/2] {
		if !g.Remove(k) {
			t.Fatal("remove on reloaded cascade failed")
		}
	}
	checkBudgetInvariant(t, &g.cascade)
}

func TestFreezeAutoTrigger(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9,
		AutoFreeze: true, FreezeMaxLoad: 1}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(28).Keys(20000)
	for _, k := range keys {
		f.Insert(k)
	}
	if f.freezes.Load() == 0 {
		t.Fatal("auto-freeze never fired across growths")
	}
	if fuseLevelCount(f.levels) == 0 {
		t.Fatal("no fuse level in an auto-freezing cascade")
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatal("auto-freeze lost a key")
		}
	}
	checkBudgetInvariant(t, &f.cascade)
}

func TestFreezeValidationRejectsBadPolicy(t *testing.T) {
	for _, cfg := range []Config{
		{TargetFPR: 1.0 / 256, FreezeMinAge: -1},
		{TargetFPR: 1.0 / 256, FreezeMaxLoad: 1.5},
		{TargetFPR: 1.0 / 256, FreezeMaxLoad: -0.1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// budgetSubject is one cascade filter under TestBudgetInvariantUnderInterleavings:
// its operations, its shared cascade state, and settle, which waits out any
// background structural op so the state can be read.
type budgetSubject struct {
	f interface {
		Insert(uint64) bool
		Remove(uint64) bool
		Contains(uint64) bool
		Count() uint64
		CompactNow() CompactionResult
		FreezeNow() FreezeResult
	}
	c      *cascade
	settle func()
}

// TestBudgetInvariantUnderInterleavings is the accounting property test:
// across a seeded random interleaving of grow (insert bursts), remove
// churn, CompactNow, FreezeNow and thaw (the removes trip it), the cascade
// budget ledger must balance after every step — Σ live level budgets +
// reclaimed equals the spent schedule prefix exactly, and adding the
// unspent tail never exceeds ε — and Count must be exact. It runs against
// the sequential Filter, where every op is inline, and against CFilter,
// where the same script goes through the sealing, remove-log and swap path
// and thaws run on a background goroutine.
func TestBudgetInvariantUnderInterleavings(t *testing.T) {
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	subjects := []struct {
		name string
		new  func() budgetSubject
	}{
		{"sequential", func() budgetSubject {
			f, _ := New(cfg)
			return budgetSubject{f, &f.cascade, func() {}}
		}},
		{"concurrent", func() budgetSubject {
			f, _ := NewConcurrent(cfg)
			return budgetSubject{f, &f.cascade, func() {
				for f.freezing.Load() || f.compacting.Load() {
					runtime.Gosched()
				}
			}}
		}},
	}
	for _, sub := range subjects {
		name := sub.name
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			s := sub.new()
			f := s.f
			stream := workload.NewStream(uint64(29 + seed))
			var liveKeys []uint64
			steps := 60
			if testing.Short() {
				steps = 20
			}
			for step := 0; step < steps; step++ {
				switch rng.Intn(4) {
				case 0: // grow
					batch := stream.Keys(500 + rng.Intn(3000))
					for _, k := range batch {
						if !f.Insert(k) {
							t.Fatal("insert failed")
						}
					}
					liveKeys = append(liveKeys, batch...)
				case 1: // churn (may trip thaw on frozen levels)
					n := len(liveKeys) / 3
					for _, k := range liveKeys[:n] {
						if !f.Remove(k) {
							t.Fatalf("%s seed %d: remove of live key %#x failed", name, seed, k)
						}
					}
					liveKeys = liveKeys[n:]
				case 2:
					f.CompactNow()
				case 3:
					f.FreezeNow()
				}
				s.settle()
				checkBudgetInvariant(t, s.c)
				if f.Count() != uint64(len(liveKeys)) {
					t.Fatalf("%s seed %d step %d: count %d, want %d live", name, seed, step, f.Count(), len(liveKeys))
				}
			}
			for _, k := range liveKeys {
				if !f.Contains(k) {
					t.Fatalf("%s seed %d: lost live key %#x", name, seed, k)
				}
			}
		}
	}
}

// fuseHolding returns the fuse level of ls whose vault holds key's packed
// form, with that key's surviving instance count there.
func fuseHolding(ls []*level, key uint64) (*fuseLevel, uint64) {
	for _, l := range ls {
		if fl, ok := l.filter.(*fuseLevel); ok {
			if n := fl.netOf(fl.pack(fl.key(key))); n > 0 {
				return fl, n
			}
		}
	}
	return nil, 0
}

// insertWithDuplicate inserts keys into f with key keys[at] repeated k
// times in a row, so its instances share the oldest level.
func insertWithDuplicate(t *testing.T, f interface{ Insert(uint64) bool }, keys []uint64, at, k int) {
	t.Helper()
	for i, key := range keys {
		n := 1
		if i == at {
			n = k
		}
		for ; n > 0; n-- {
			if !f.Insert(key) {
				t.Fatal("insert failed")
			}
		}
	}
}

// TestFreezeLedgerDuplicates freezes a key stored k times among its
// neighbours: exactly k removes succeed, Count drops by one each time, the
// key stays visible until its last instance goes, and a partly removed
// duplicate survives WriteTo → Read → WriteTo byte for byte.
func TestFreezeLedgerDuplicates(t *testing.T) {
	const k = 5
	cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9}
	f, _ := New(cfg)
	keys := workload.NewStream(31).Keys(6000)
	dup := keys[100]
	insertWithDuplicate(t, f, keys, 100, k)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatal("expected a fuse level")
	}
	fl, n := fuseHolding(f.levels, dup)
	if fl == nil || n != k {
		t.Fatalf("duplicate frozen with %d instances, want %d", n, k)
	}
	p := fl.pack(fl.key(dup))
	if d := fl.dupes[p]; d == nil || d.base != k {
		t.Fatalf("duplicate ledger entry %+v, want base %d", d, k)
	}
	count := f.Count()
	for i := 1; i <= k; i++ {
		if !f.Remove(dup) {
			t.Fatalf("remove %d of %d frozen instances failed", i, k)
		}
		if f.Count() != count-uint64(i) || fl.netOf(p) != uint64(k-i) {
			t.Fatalf("after %d removes: Count %d (want %d), net %d (want %d)",
				i, f.Count(), count-uint64(i), fl.netOf(p), k-i)
		}
		if got := f.Contains(dup); got != (i < k) {
			t.Fatalf("after %d of %d removes Contains = %v", i, k, got)
		}
		if i == 2 {
			checkPartialDuplicate(t, f, fl, dup, k-i)
		}
	}
	if f.Remove(dup) {
		t.Fatalf("remove %d of %d frozen instances succeeded", k+1, k)
	}
	if f.Count() != count-k {
		t.Fatalf("Count drifted to %d after a capped remove, want %d", f.Count(), count-k)
	}
	if f.thaws.Load() != 0 {
		t.Fatal("a handful of removes thawed the level")
	}
}

// checkPartialDuplicate checks a cascade whose frozen key dup has left
// surviving instances in fl: thaw iteration yields it left times, and the
// cascade reloads byte-identical with a ledger that still admits exactly
// left removes.
func checkPartialDuplicate(t *testing.T, f *Filter, fl *fuseLevel, dup uint64, left int) {
	t.Helper()
	h := fl.unpack(fl.pack(fl.key(dup)))
	yields := 0
	fl.IterateHashes(func(x uint64) bool {
		if x == h {
			yields++
		}
		return true
	})
	if yields != left {
		t.Fatalf("IterateHashes yields the duplicate %d times, want %d", yields, left)
	}
	var a, b bytes.Buffer
	if _, err := f.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	g, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("WriteTo → Read → WriteTo changed the stream (%d → %d bytes)", a.Len(), b.Len())
	}
	count := g.Count()
	for i := 1; i <= left; i++ {
		if !g.Remove(dup) || g.Count() != count-uint64(i) {
			t.Fatalf("reloaded ledger: remove %d of %d left failed (Count %d)", i, left, g.Count())
		}
	}
	if g.Remove(dup) {
		t.Fatal("reloaded ledger allowed one remove too many")
	}
}

// TestFreezeLedgerAllocs pins the frozen remove path as allocation-free: a
// fuse level's Remove and Contains once it holds tombstones, and a cascade
// Remove that lands on a fuse level and runs the automatic triggers
// without crossing the thaw threshold, with and without a freeze age.
func TestFreezeLedgerAllocs(t *testing.T) {
	const runs = 100
	for _, minAge := range []time.Duration{0, time.Hour} {
		cfg := Config{TargetFPR: 1.0 / 256, InitialSlots: 1 << 9, AutoFreeze: true, FreezeMinAge: minAge}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys := workload.NewStream(32).Keys(20000)
		for _, k := range keys {
			if !f.Insert(k) {
				t.Fatal("insert failed")
			}
		}
		f.FreezeNow()
		// Keys whose newest-first remove lands on a fuse level, grouped by
		// that level.
		frozen := map[*fuseLevel][]uint64{}
		for _, k := range keys {
			for i := len(f.levels) - 1; i >= 0; i-- {
				if f.levels[i].filter.Contains(k) {
					if fl, ok := f.levels[i].filter.(*fuseLevel); ok {
						frozen[fl] = append(frozen[fl], k)
					}
					break
				}
			}
		}
		var fl *fuseLevel
		for cand, ks := range frozen {
			if uint64(4*(2*runs+2)) < cand.baseTotal && len(ks) >= 2*runs+2 {
				fl = cand
			}
		}
		if fl == nil {
			t.Fatalf("min age %v: no fuse level large enough", minAge)
		}
		ks := frozen[fl]
		i := 0
		if a := testing.AllocsPerRun(runs, func() { fl.Remove(ks[i]); i++ }); a != 0 {
			t.Errorf("min age %v: fuseLevel.Remove allocates %.1f per call", minAge, a)
		}
		if a := testing.AllocsPerRun(runs, func() { fl.Contains(ks[0]); fl.Contains(ks[len(ks)-1]) }); a != 0 {
			t.Errorf("min age %v: fuseLevel.Contains allocates %.1f per call", minAge, a)
		}
		thaws := f.thaws.Load()
		if a := testing.AllocsPerRun(runs, func() {
			if !f.Remove(ks[i]) {
				t.Fatal("remove of a frozen key failed")
			}
			i++
		}); a != 0 {
			t.Errorf("min age %v: Filter.Remove on a fuse level allocates %.1f per call", minAge, a)
		}
		if f.thaws.Load() != thaws || fl.Count() != fl.baseTotal-uint64(i) {
			t.Fatalf("min age %v: removes thawed the level or drifted its count", minAge)
		}
	}
}

// TestFreezeAgeMonotonic pins the auto-freeze age test to monotonic
// readings: stamps come from monoNow, a level stamped just now is too young
// for a one-hour FreezeMinAge, a stamp older than that passes, and a zero
// stamp (a deserialized level) counts as old.
func TestFreezeAgeMonotonic(t *testing.T) {
	f, _ := New(Config{TargetFPR: 1.0 / 256})
	lvl := f.levels[0]
	before := monoNow()
	stampFrozen(lvl)
	if fa := lvl.frozenAt.Load(); fa < before || fa > monoNow() {
		t.Fatalf("stamp %d outside the monotonic readings around it [%d, %d]", fa, before, monoNow())
	}
	g := autoFreezeGate(Config{FreezeMaxLoad: 1, FreezeMinAge: time.Hour})
	if g.admits(lvl) {
		t.Fatal("gate admitted a level frozen just now")
	}
	lvl.frozenAt.Store(g.now - int64(2*time.Hour))
	if !g.admits(lvl) {
		t.Fatal("gate refused a level frozen two hours ago")
	}
	lvl.frozenAt.Store(0)
	if !g.admits(lvl) {
		t.Fatal("gate refused a level of unknown age")
	}
	if g := autoFreezeGate(Config{FreezeMaxLoad: 1}); g.now != 0 {
		t.Fatal("gate read the clock with no minimum age")
	}
}
