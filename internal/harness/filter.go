// Package harness drives the paper's Section 7 evaluation: load-factor
// sweeps (Figures 4 and 5), aggregate-throughput runs (Figure 6), empirical
// space and false-positive measurement (Table 2), the write-heavy mixed
// workload (Table 3), multi-threaded insert scaling (Table 4), and the
// maximum-load-factor experiments of Sections 3.4 and 6.2.
//
// Every experiment consumes deterministic workload streams, sizes all
// filters for a common slot count, and reports throughput in millions of
// operations per second, mirroring the paper's methodology: the time to
// generate inputs is excluded, and filters are exercised through the same
// one-at-a-time operation API.
package harness

import (
	"vqf/internal/bloom"
	"vqf/internal/core"
	"vqf/internal/cuckoo"
	"vqf/internal/morton"
	"vqf/internal/rsqf"
)

// Filter is the operation surface every benchmarked filter exposes. All
// methods take pre-hashed 64-bit keys.
type Filter interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	Remove(h uint64) bool
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
}

// Spec names a filter configuration and knows how to build one with a given
// slot budget.
type Spec struct {
	Name string
	// MaxLoad is the benchmark fill target (fraction of Capacity): 0.90 for
	// the VQF (which supports ≈93% max), 0.95 for the others, per §7.1.
	MaxLoad float64
	// NoDelete marks filters without deletion support (plain Bloom).
	NoDelete bool
	New      func(nslots uint64) (Filter, error)
}

// The paper's Figure 4–6 line-up at target ε ≈ 2⁻⁸ (Table 2 configurations):
// VQF with 8-bit fingerprints, with and without the shortcut optimization;
// quotient filter with 8-bit remainders; cuckoo filter with 12-bit
// fingerprints (chosen so its FPR roughly matches); Morton filter with 8-bit
// fingerprints.

// SpecVQF8 is the vector quotient filter, no shortcut.
func SpecVQF8() Spec {
	return Spec{Name: "vqf", MaxLoad: 0.90, New: func(n uint64) (Filter, error) {
		return core.NewFilter8(n, core.Options{NoShortcut: true}), nil
	}}
}

// SpecVQF8Shortcut is the vector quotient filter with the §6.2 shortcut.
func SpecVQF8Shortcut() Spec {
	return Spec{Name: "vqf-shortcut", MaxLoad: 0.90, New: func(n uint64) (Filter, error) {
		return core.NewFilter8(n, core.Options{}), nil
	}}
}

// SpecVQF8Generic is the scalar-loop ablation variant (§7.7 analog).
func SpecVQF8Generic() Spec {
	return Spec{Name: "vqf-generic", MaxLoad: 0.90, New: func(n uint64) (Filter, error) {
		return core.NewFilter8(n, core.Options{Generic: true}), nil
	}}
}

// SpecQF8 is the quotient filter with 8-bit remainders: the rank-and-select
// encoding (internal/rsqf), matching the paper's CQF comparator.
func SpecQF8() Spec {
	return Spec{Name: "qf", MaxLoad: 0.95, New: func(n uint64) (Filter, error) {
		return rsqf.NewForSlots(n, 8)
	}}
}

// SpecCF12 is the cuckoo filter with 12-bit fingerprints.
func SpecCF12() Spec {
	return Spec{Name: "cf", MaxLoad: 0.95, New: func(n uint64) (Filter, error) {
		return cuckoo.New(n, 12)
	}}
}

// SpecMF8 is the Morton filter with 8-bit fingerprints.
func SpecMF8() Spec {
	return Spec{Name: "mf", MaxLoad: 0.95, New: func(n uint64) (Filter, error) {
		return morton.New8(n), nil
	}}
}

// SpecBloom8 is a standard Bloom filter targeting ε = 2⁻⁸ (used for the
// space comparisons; it cannot delete).
func SpecBloom8() Spec {
	return Spec{Name: "bloom", MaxLoad: 0.95, NoDelete: true, New: func(n uint64) (Filter, error) {
		return bloom.New(n*95/100, 1.0/256), nil
	}}
}

// SpecsFPR8 is the paper's ε ≈ 2⁻⁸ filter line-up for Figures 4–6.
func SpecsFPR8() []Spec {
	return []Spec{SpecVQF8(), SpecVQF8Shortcut(), SpecQF8(), SpecCF12(), SpecMF8()}
}

// The ε ≈ 2⁻¹⁶ line-up: 16-bit fingerprints everywhere (the cuckoo filter's
// 16-bit config has a higher FPR, as the paper's Table 2 notes).

// SpecVQF16 is the 16-bit vector quotient filter, no shortcut.
func SpecVQF16() Spec {
	return Spec{Name: "vqf16", MaxLoad: 0.88, New: func(n uint64) (Filter, error) {
		return core.NewFilter16(n, core.Options{NoShortcut: true}), nil
	}}
}

// SpecVQF16Shortcut is the 16-bit VQF with the shortcut optimization.
func SpecVQF16Shortcut() Spec {
	return Spec{Name: "vqf16-shortcut", MaxLoad: 0.88, New: func(n uint64) (Filter, error) {
		return core.NewFilter16(n, core.Options{}), nil
	}}
}

// SpecVQF16Generic is the 16-bit scalar-loop ablation variant.
func SpecVQF16Generic() Spec {
	return Spec{Name: "vqf16-generic", MaxLoad: 0.88, New: func(n uint64) (Filter, error) {
		return core.NewFilter16(n, core.Options{Generic: true}), nil
	}}
}

// SpecQF16 is the rank-and-select quotient filter with 16-bit remainders.
func SpecQF16() Spec {
	return Spec{Name: "qf16", MaxLoad: 0.95, New: func(n uint64) (Filter, error) {
		return rsqf.NewForSlots(n, 16)
	}}
}

// SpecCF16 is the cuckoo filter with 16-bit fingerprints.
func SpecCF16() Spec {
	return Spec{Name: "cf16", MaxLoad: 0.95, New: func(n uint64) (Filter, error) {
		return cuckoo.New(n, 16)
	}}
}

// SpecMF16 is the Morton filter with 16-bit fingerprints.
func SpecMF16() Spec {
	return Spec{Name: "mf16", MaxLoad: 0.95, New: func(n uint64) (Filter, error) {
		return morton.New16(n), nil
	}}
}

// SpecsFPR16 is the ε ≈ 2⁻¹⁶ line-up for Figure 6c/6d.
func SpecsFPR16() []Spec {
	return []Spec{SpecVQF16(), SpecVQF16Shortcut(), SpecQF16(), SpecCF16(), SpecMF16()}
}
