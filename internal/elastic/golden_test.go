package elastic

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vqf/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenCases are the two cascade geometries the golden streams pin: a
// loose budget whose levels all take 8-bit fingerprints and freeze into
// kindFuse8 levels, and a tight one whose levels are all 16-bit.
var goldenCases = []struct {
	name string
	cfg  Config
}{
	{"cascade8", Config{TargetFPR: 0.1, TightenRatio: 0.8, InitialSlots: 1 << 8,
		CompactMinLevels: 3, CompactMaxLoad: 0.45, AutoFreeze: true, FreezeMaxLoad: 0.1}},
	{"cascade16", Config{TargetFPR: 1.0 / 1024, TightenRatio: 0.8, InitialSlots: 1 << 8,
		CompactMinLevels: 3, CompactMaxLoad: 0.45, AutoFreeze: true, FreezeMaxLoad: 0.1}},
}

// goldenScript drives a sequential cascade through every structural op
// with a fixed key stream and a fixed remove pattern: growth, automatic
// compaction, automatic freezes whose tombstones thaw levels back into VQF
// form, an explicit FreezeNow, and removes that empty old levels so they
// are dropped and their budgets reclaimed. It returns the concatenated
// WriteTo streams taken at three checkpoints, and checks that each op
// actually ran.
func goldenScript(t *testing.T, cfg Config) []byte {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.NewStream(7)
	rng := rand.New(rand.NewSource(7))
	var live []uint64
	ins := func(n int) {
		ks := stream.Keys(n)
		for _, k := range ks {
			if !f.Insert(k) {
				t.Fatal("insert failed")
			}
		}
		live = append(live, ks...)
	}
	// rem removes n keys drawn at random from live[from:to].
	rem := func(from, to, n int) {
		for i := 0; i < n; i++ {
			j := from + rng.Intn(to-from-i)
			if !f.Remove(live[j]) {
				t.Fatalf("remove of live key %#x failed", live[j])
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
	var out bytes.Buffer
	checkpoint := func() {
		if _, err := f.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
	}

	ins(5000)
	rem(0, 4000, 2500)
	ins(4000)
	rem(0, 1500, 1250)
	ins(4000)
	rem(0, 4000, 2500)
	// Every level frozen so far was thawed again, and none was dropped: the
	// thaws rebuilt VQF levels.
	if s := f.Snapshot(); s.Compactions == 0 || s.Freezes == 0 || s.Thaws == 0 ||
		s.BudgetReclaimed != 0 || fuseLevelCount(f.levels) != 0 {
		t.Fatalf("script missed compaction or thaw-to-VQF: %+v, %d fuse levels", s, fuseLevelCount(f.levels))
	}
	checkpoint()

	rem(0, 250, 200)
	if res := f.FreezeNow(); res.FuseLevels == 0 {
		t.Fatalf("explicit freeze produced no fuse level: %+v", res)
	}
	checkpoint()

	rem(0, 20, 20)
	rem(0, 150, 150)
	rem(0, 30, 30)
	ins(1500)
	rem(0, 1250, 100)
	if s := f.Snapshot(); s.BudgetReclaimed == 0 || !hasTombstones(f.levels) {
		t.Fatalf("script missed an empty-level drop or a tombstoned fuse level: %+v", s)
	}
	checkBudgetInvariant(t, &f.cascade)
	if f.Count() != uint64(len(live)) {
		t.Fatalf("count %d, want %d", f.Count(), len(live))
	}
	checkpoint()
	return out.Bytes()
}

// hasTombstones reports whether some fuse level carries removes.
func hasTombstones(ls []*level) bool {
	for _, l := range ls {
		if fl, ok := l.filter.(*fuseLevel); ok && fl.tombTotal.Load() > 0 {
			return true
		}
	}
	return false
}

// TestGoldenCascadeStreams pins the serialized cascade after a scripted
// history of every structural op: the replay must reproduce the committed
// streams byte for byte, and each checkpoint must survive Read → WriteTo
// unchanged. Regenerate with `go test ./internal/elastic -run
// TestGoldenCascadeStreams -update` only for a deliberate format change.
func TestGoldenCascadeStreams(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenScript(t, tc.cfg)
			path := filepath.Join("testdata", "golden", tc.name+".bin")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("replayed streams (%d bytes) differ from %s (%d bytes)", len(got), path, len(want))
			}

			r := bytes.NewReader(want)
			var again bytes.Buffer
			for n := 0; r.Len() > 0; n++ {
				g, err := Read(r)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", n, err)
				}
				if _, err := g.WriteTo(&again); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(again.Bytes(), want) {
				t.Fatal("Read → WriteTo changed the golden streams")
			}
		})
	}
}
