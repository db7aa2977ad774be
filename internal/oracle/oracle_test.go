package oracle

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// -oracle.long enables the CI soak: many more rounds and longer traces.
// Short mode (go test -short) runs a minimal smoke campaign.
var (
	longCampaign = flag.Bool("oracle.long", false, "run the long oracle soak campaign")
	campaignSeed = flag.Uint64("oracle.seed", 0x5eed0f5eed, "campaign base seed")
)

func campaignConfig(t *testing.T) Config {
	cfg := Config{
		Seed:     *campaignSeed,
		Rounds:   2,
		Ops:      4000,
		Universe: 1200,
		Log:      t.Logf,
	}
	if testing.Short() {
		cfg.Rounds, cfg.Ops, cfg.Universe = 1, 1200, 400
	}
	if *longCampaign {
		cfg.Rounds, cfg.Ops, cfg.Universe = 8, 20000, 5000
	}
	return cfg
}

// TestCampaign is the oracle's main entry point under go test: every
// property across every applicable subject. Failures arrive pre-shrunk with
// a repro file under the test's temp dir; promote such a file into
// testdata/repros/ when fixing the bug it found.
func TestCampaign(t *testing.T) {
	cfg := campaignConfig(t)
	cfg.ReproDir = t.TempDir()
	for _, f := range Run(cfg) {
		data, _ := os.ReadFile(f.ReproPath)
		t.Errorf("%s\nrepro trace (%s):\n%s", f, f.ReproPath, data)
	}
}

// TestReprosStayFixed replays every committed repro trace: each one is the
// minimal witness of a bug this repo fixed, and must keep passing.
func TestReprosStayFixed(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "repros")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".trace") {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ParseRepro(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := ReplayRepro(rep); err != nil {
				t.Errorf("regression: %v", err)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no committed repro traces found")
	}
}

// TestTraceRoundTrip pins the repro text format: write→parse→write is the
// identity.
func TestTraceRoundTrip(t *testing.T) {
	tr := Generate(42, GenConfig{Ops: 300, Universe: 64})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "filter8", "differential", tr); err != nil {
		t.Fatal(err)
	}
	rep, err := ParseRepro(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Subject != "filter8" || rep.Property != "differential" {
		t.Fatalf("header lost: %+v", rep)
	}
	if rep.Trace.NSlots != tr.NSlots || !reflect.DeepEqual(rep.Trace.Ops, tr.Ops) {
		t.Fatal("trace mutated across round-trip")
	}
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, rep.Subject, rep.Property, rep.Trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialized repro differs")
	}
}

// TestShrinkMinimizes checks the shrinker on a synthetic failure: a
// predicate that needs one specific insert followed by one specific remove
// must shrink to exactly those two ops.
func TestShrinkMinimizes(t *testing.T) {
	tr := Generate(7, GenConfig{Ops: 2000, Universe: 500})
	const needle = 0xdeadbeef
	tr.Ops[137] = Op{OpInsert, needle}
	tr.Ops[1490] = Op{OpRemove, needle}
	fails := func(c Trace) bool {
		seenInsert := false
		for _, op := range c.Ops {
			if op.Kind == OpInsert && op.Key == needle {
				seenInsert = true
			}
			if op.Kind == OpRemove && op.Key == needle && seenInsert {
				return true
			}
		}
		return false
	}
	if !fails(tr) {
		t.Fatal("synthetic predicate does not fail on the full trace")
	}
	got := Shrink(tr, fails)
	if len(got.Ops) != 2 {
		t.Fatalf("shrunk to %d ops, want 2: %v", len(got.Ops), got.Ops)
	}
	if got.Ops[0] != (Op{OpInsert, needle}) || got.Ops[1] != (Op{OpRemove, needle}) {
		t.Fatalf("wrong minimal trace: %v", got.Ops)
	}
}

// TestSubjectsBuild verifies every registered subject constructs at the
// campaign's standard sizing and that capability flags match reality.
func TestSubjectsBuild(t *testing.T) {
	for _, s := range Subjects() {
		inst, err := s.New(4096)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if !inst.Insert(12345) {
			t.Errorf("%s: first insert failed", s.Name)
		}
		if !inst.Contains(12345) {
			t.Errorf("%s: inserted key missing", s.Name)
		}
		if s.Concurrent {
			if _, ok := inst.(lockedReader); !ok && strings.HasPrefix(s.Name, "cfilter") {
				t.Errorf("%s: concurrent core filter without ContainsLocked", s.Name)
			}
		}
	}
}

// TestSerializeIdentitySubjects pins which subjects the serialize-identity
// property round-trips — every VQF-family subject, each through its own
// stream reader — and runs it once on each.
func TestSerializeIdentitySubjects(t *testing.T) {
	want := []string{"filter8", "filter8-noshortcut", "filter16", "filter16-noshortcut",
		"cfilter8", "cfilter16", "map", "elastic", "elastic-concurrent",
		"elastic-frozen", "elastic-frozen-concurrent"}
	prop, err := PropertyByName("serialize-identity")
	if err != nil {
		t.Fatal(err)
	}
	tr := Generate(3, GenConfig{Ops: 3000, Universe: 800})
	var got []string
	for _, s := range Subjects() {
		if !prop.Applies(s) {
			continue
		}
		got = append(got, s.Name)
		if err := prop.Check(s, tr); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("serialize-identity applies to %v, want %v", got, want)
	}
}
