package main

import (
	"strings"
	"testing"
)

// runTiny runs a workload at its tiny size and fails the test on an error
// or a failed correctness gate.
func runTiny(t *testing.T, workload string, trace bool) map[string]float64 {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, traceDir: t.TempDir(), tiny: true}
	out, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if len(out.gateErrs) > 0 {
		t.Fatalf("%s (trace %v): correctness gates failed: %v", workload, trace, out.gateErrs)
	}
	res := render(cfg, out)
	if !res.Correct || res.Attempted == 0 {
		t.Fatalf("%s (trace %v): result not correct: %+v", workload, trace, res)
	}
	vals := map[string]float64{}
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	vals["failed"] = float64(res.Failed)
	return vals
}

// isCount reports whether a metric is a work count or a ratio of counts,
// which a seed fixes exactly, rather than a timing.
func isCount(name string) bool {
	switch {
	case name == "fpr" || name == "bits_per_item" || name == "facade.sampled_frac":
		return true
	case strings.HasSuffix(name, "_ns") || strings.Contains(name, "_ms"):
		return false
	}
	return strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "elastic.")
}

// TestExactCounts runs each sequential workload twice on one seed and
// requires every count-derived metric to repeat exactly, in both run modes.
func TestExactCounts(t *testing.T) {
	for _, w := range []string{"embed-l2", "cascade-churn"} {
		for _, trace := range []bool{false, true} {
			a, b := runTiny(t, w, trace), runTiny(t, w, trace)
			n := 0
			for name, va := range a {
				if !isCount(name) {
					continue
				}
				n++
				if vb := b[name]; va != vb {
					t.Errorf("%s (trace %v): %s = %v then %v on the same seed", w, trace, name, va, vb)
				}
			}
			if n == 0 {
				t.Errorf("%s (trace %v): no count metrics compared", w, trace)
			}
		}
	}
}

// TestServiceCompletes runs vqfd-binary in both modes and requires every
// operation to succeed.
func TestServiceCompletes(t *testing.T) {
	for _, trace := range []bool{false, true} {
		v := runTiny(t, "vqfd-binary", trace)
		if v["failed"] != 0 {
			t.Errorf("trace %v: %v failed operations", trace, v["failed"])
		}
		if !trace && v["success_rate"] != 1 {
			t.Errorf("success_rate %v, want 1 (error_rate 0)", v["success_rate"])
		}
	}
}

// TestKeyStreamsDisjoint checks the property the negative lookups rely on:
// the live and negative streams never produce the same key.
func TestKeyStreamsDisjoint(t *testing.T) {
	live, neg := newStream(3, streamLive), newStream(3, streamNeg)
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1<<16; i++ {
		seen[live.key(i)] = true
	}
	for i := uint64(0); i < 1<<16; i++ {
		if seen[neg.key(i)] {
			t.Fatalf("negative key %d is also a live key", i)
		}
	}
}
