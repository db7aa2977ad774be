package oracle

import (
	"fmt"
	"io"

	"vqf/internal/bloom"
	"vqf/internal/core"
	"vqf/internal/cuckoo"
	"vqf/internal/elastic"
	"vqf/internal/morton"
	"vqf/internal/rsqf"
)

// Instance is the operation surface every subject exposes: the same
// pre-hashed single-key API the harness benchmarks through.
type Instance interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	Remove(h uint64) bool
	Count() uint64
}

// insertBatcher, removeBatcher and containsBatcher are the optional batch
// surfaces; the batch-equivalence property applies to whichever a subject's
// instance implements.
type insertBatcher interface{ InsertBatch([]uint64) int }
type removeBatcher interface{ RemoveBatch([]uint64) int }
type containsBatcher interface {
	ContainsBatch([]uint64, []bool) []bool
}

// lockedReader is the concurrent filters' locked read path, the baseline the
// optimistic seqlock path must agree with.
type lockedReader interface{ ContainsLocked(h uint64) bool }

// Subject names one filter variant and knows how to build an instance with a
// given slot budget.
type Subject struct {
	Name string
	// NoRemove marks variants without deletion (plain Bloom): trace removes
	// are skipped on both filter and model.
	NoRemove bool
	// Concurrent marks instances safe for multi-goroutine use; only these run
	// the optimistic-vs-locked property.
	Concurrent bool
	// FPRBound is the variant's expected false-positive ceiling at the
	// oracle's operating load. The differential property fails only well past
	// it (4× plus a fixed probe allowance), so the check flags broken hashing
	// or metadata corruption, never binomial noise.
	FPRBound float64
	New      func(nslots uint64) (Instance, error)
	// Read, when set, loads a stream one of the subject's instances wrote
	// (they then implement io.WriterTo); the serialize-identity property
	// round-trips instances through it. A concurrent cascade reads back as
	// the sequential one, which writes the same stream.
	Read func(r io.Reader) (Instance, error)
}

// kvAdapter drives the value-associating KVFilter8 through the set surface.
// Insert stores a key-derived value to exercise the parallel value lane, but
// Contains checks presence only: the map's documented contract is that Get
// returns the value of *a* matching fingerprint, so two live keys whose
// 8-bit fingerprints collide legitimately read each other's value — the
// oracle must not promote that ε-probability event into a failure. (The
// value lane's shifting is covered by the package's own unit tests.)
type kvAdapter struct{ m *core.KVFilter8 }

func (a kvAdapter) Insert(h uint64) bool { return a.m.Put(h, byte(h>>5)) }
func (a kvAdapter) Contains(h uint64) bool {
	_, ok := a.m.Get(h)
	return ok
}
func (a kvAdapter) Remove(h uint64) bool { return a.m.Delete(h) }
func (a kvAdapter) Count() uint64        { return a.m.Count() }
func (a kvAdapter) WriteTo(w io.Writer) (int64, error) {
	return a.m.WriteTo(w)
}

// wrap converts a concrete (filter, error) constructor result to the
// Instance interface, mapping a failed construction to a nil interface (not
// a typed-nil pointer).
func wrap[T Instance](f T, err error) (Instance, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// reader adapts a stream reader to Subject.Read.
func reader[T Instance](read func(io.Reader) (T, error)) func(io.Reader) (Instance, error) {
	return func(r io.Reader) (Instance, error) { return wrap(read(r)) }
}

// Subjects returns every filter variant the oracle drives: the VQF core
// filters (both geometries, with and without the §6.2 shortcut), the
// concurrent filters, the elastic cascades, the Map adapter, and the
// comparator implementations benchmarked by the paper.
func Subjects() []Subject {
	mk := func(f Instance) (Instance, error) { return f, nil }
	return []Subject{
		{Name: "filter8", FPRBound: 0.006, Read: reader(core.ReadFilter8),
			New: func(n uint64) (Instance, error) { return mk(core.NewFilter8(n, core.Options{})) }},
		{Name: "filter8-noshortcut", FPRBound: 0.006, Read: reader(core.ReadFilter8),
			New: func(n uint64) (Instance, error) { return mk(core.NewFilter8(n, core.Options{NoShortcut: true})) }},
		{Name: "filter16", FPRBound: 5e-5, Read: reader(core.ReadFilter16),
			New: func(n uint64) (Instance, error) { return mk(core.NewFilter16(n, core.Options{})) }},
		{Name: "filter16-noshortcut", FPRBound: 5e-5, Read: reader(core.ReadFilter16),
			New: func(n uint64) (Instance, error) { return mk(core.NewFilter16(n, core.Options{NoShortcut: true})) }},
		{Name: "cfilter8", Concurrent: true, FPRBound: 0.006, Read: reader(core.ReadCFilter8),
			New: func(n uint64) (Instance, error) { return mk(core.NewCFilter8(n, core.Options{})) }},
		{Name: "cfilter16", Concurrent: true, FPRBound: 5e-5, Read: reader(core.ReadCFilter16),
			New: func(n uint64) (Instance, error) { return mk(core.NewCFilter16(n, core.Options{})) }},
		{Name: "map", FPRBound: 0.006,
			New: func(n uint64) (Instance, error) { return mk(kvAdapter{core.NewKV8(n)}) },
			Read: func(r io.Reader) (Instance, error) {
				m, err := core.ReadKV8(r)
				return wrap(kvAdapter{m}, err)
			}},
		{Name: "elastic", FPRBound: 1.0 / 128, Read: reader(elastic.Read),
			New: func(n uint64) (Instance, error) {
				return wrap(elastic.New(elastic.Config{TargetFPR: 1.0 / 128, InitialSlots: 1 << 10}))
			}},
		{Name: "elastic-concurrent", Concurrent: true, FPRBound: 1.0 / 128, Read: reader(elastic.Read),
			New: func(n uint64) (Instance, error) {
				return wrap(elastic.NewConcurrent(elastic.Config{TargetFPR: 1.0 / 128, InitialSlots: 1 << 10}))
			}},
		// The frozen-tier subjects run the same cascade with the most
		// aggressive freeze policy expressible (no age gate, any load), so
		// every growth immediately rebuilds old levels into fuse levels and
		// the whole trace — removes, queries, duplicate churn — exercises the
		// immutable tier's vault, tombstone and thaw paths.
		{Name: "elastic-frozen", FPRBound: 1.0 / 128, Read: reader(elastic.Read),
			New: func(n uint64) (Instance, error) {
				return wrap(elastic.New(elastic.Config{TargetFPR: 1.0 / 128, InitialSlots: 1 << 9,
					AutoFreeze: true, FreezeMaxLoad: 1}))
			}},
		{Name: "elastic-frozen-concurrent", Concurrent: true, FPRBound: 1.0 / 128, Read: reader(elastic.Read),
			New: func(n uint64) (Instance, error) {
				return wrap(elastic.NewConcurrent(elastic.Config{TargetFPR: 1.0 / 128, InitialSlots: 1 << 9,
					AutoFreeze: true, FreezeMaxLoad: 1}))
			}},
		{Name: "rsqf8", FPRBound: 0.008,
			New: func(n uint64) (Instance, error) { return wrap(rsqf.NewForSlots(n, 8)) }},
		{Name: "rsqf16", FPRBound: 1e-4,
			New: func(n uint64) (Instance, error) { return wrap(rsqf.NewForSlots(n, 16)) }},
		{Name: "cuckoo12", FPRBound: 0.003,
			New: func(n uint64) (Instance, error) { return wrap(cuckoo.New(n, 12)) }},
		{Name: "cuckoo16", FPRBound: 2e-4,
			New: func(n uint64) (Instance, error) { return wrap(cuckoo.New(n, 16)) }},
		{Name: "morton8", FPRBound: 0.008,
			New: func(n uint64) (Instance, error) { return mk(morton.New8(n)) }},
		{Name: "morton16", FPRBound: 5e-5,
			New: func(n uint64) (Instance, error) { return mk(morton.New16(n)) }},
		{Name: "bloom", NoRemove: true, FPRBound: 1.0 / 128,
			New: func(n uint64) (Instance, error) { return mk(bloom.New(n, 1.0/256)) }},
		{Name: "bloom-counting", FPRBound: 1.0 / 128,
			New: func(n uint64) (Instance, error) { return mk(bloom.NewCounting(n, 1.0/256)) }},
	}
}

// SubjectByName resolves a repro header's subject.
func SubjectByName(name string) (Subject, error) {
	for _, s := range Subjects() {
		if s.Name == name {
			return s, nil
		}
	}
	return Subject{}, fmt.Errorf("oracle: unknown subject %q", name)
}
