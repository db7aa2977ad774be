package core

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vqf/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenFilter is the surface the golden scripts drive: every core filter
// kind that serializes.
type goldenFilter interface {
	Insert(h uint64) bool
	Remove(h uint64) bool
	InsertBatch(hs []uint64) int
	RemoveBatch(hs []uint64) int
	Count() uint64
	WriteTo(w io.Writer) (int64, error)
}

// goldenPhase runs one scripted phase at a pinned GOMAXPROCS, so worker
// counts — and with them the order each shard sees its keys in — do not
// depend on the host: single-key inserts and removes, then an InsertBatch
// and a RemoveBatch of batch keys (the removes mix present and absent keys).
// It returns live minus the keys the phase removed, plus the keys it added.
func goldenPhase(t *testing.T, f goldenFilter, gomax int, stream *workload.Stream, single, batch int, live []uint64) []uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomax))
	before := f.Count()
	ins := 0
	for _, h := range stream.Keys(single) {
		if f.Insert(h) {
			live = append(live, h)
			ins++
		}
	}
	rem := 0
	for i := 0; i < single/4; i++ {
		j := (i * 7) % len(live)
		if f.Remove(live[j]) {
			rem++
		}
		live = append(live[:j], live[j+1:]...)
	}
	keys := stream.Keys(batch)
	ins += f.InsertBatch(keys)
	live = append(live, keys...)
	// Every third live key plus an absent tail: the removes hit keys the
	// batch just stored, keys from earlier phases and keys never stored.
	var victims []uint64
	for i := 0; i < len(live); i += 3 {
		victims = append(victims, live[i])
	}
	victims = append(victims, workload.NewStream(uint64(len(live))).Keys(batch/8)...)
	rem += f.RemoveBatch(victims)
	if got := f.Count(); got != before+uint64(ins)-uint64(rem) {
		t.Fatalf("count %d after phase, want %d", got, before+uint64(ins)-uint64(rem))
	}
	kept := live[:0]
	for i, h := range live {
		if i%3 != 0 {
			kept = append(kept, h)
		}
	}
	return kept
}

// goldenPhaseSpec is one scripted phase: its pinned GOMAXPROCS, the
// single-key operations and the batch size.
type goldenPhaseSpec struct{ gomax, single, batch int }

// phased returns a golden script that builds a filter and runs phases on it,
// appending one WriteTo checkpoint per phase.
func phased(build func() goldenFilter, phases ...goldenPhaseSpec) func(t *testing.T) []byte {
	return func(t *testing.T) []byte {
		f := build()
		stream := workload.NewStream(13)
		var live []uint64
		var got bytes.Buffer
		for _, ph := range phases {
			live = goldenPhase(t, f, ph.gomax, stream, ph.single, ph.batch, live)
			if _, err := f.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
		}
		return got.Bytes()
	}
}

// goldenKV8 is the value-associating filter's script: Puts to a high load
// (every Put places two-choice), then Updates and Deletes of stored and
// absent keys, with a WriteTo checkpoint after the Puts and after the rest.
func goldenKV8(t *testing.T) []byte {
	f := NewKV8(1 << 12)
	var got bytes.Buffer
	keys := workload.NewStream(13).Keys(5000)
	for i, h := range keys {
		f.Put(h, byte(i))
	}
	if _, err := f.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	absent := workload.NewStream(14).Keys(500)
	for i := 0; i < len(keys); i += 3 {
		f.Update(keys[i], byte(255-i))
	}
	for i := 0; i < len(keys); i += 4 {
		f.Delete(keys[i])
	}
	for _, h := range absent {
		f.Update(h, 7)
		f.Delete(h)
	}
	if _, err := f.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	return got.Bytes()
}

// goldenCoreCases are the core filters the golden streams pin. The
// sequential filters run to a high load so two-choice placement and the
// shortcut threshold both shape the bytes; the sharded and concurrent ones
// run a single-worker phase and a phase large enough (4·minParallelBatch
// keys at GOMAXPROCS 4) for the claimed-worker pool to run four workers.
// The concurrent filters are sized so every insert of the parallel phase
// takes the shortcut into its primary block, which only the worker owning
// that block's radix part touches: the bytes do not depend on the schedule.
var goldenCoreCases = []struct {
	name string
	run  func(t *testing.T) []byte
	read func(r io.Reader) (io.WriterTo, error)
}{
	{"filter8", phased(func() goldenFilter { return NewFilter8(1<<13, Options{}) },
		goldenPhaseSpec{1, 3000, 4000}, goldenPhaseSpec{1, 2000, 4000}),
		func(r io.Reader) (io.WriterTo, error) { return ReadFilter8(r) }},
	{"filter16", phased(func() goldenFilter { return NewFilter16(1<<13, Options{}) },
		goldenPhaseSpec{1, 3000, 4000}, goldenPhaseSpec{1, 2000, 6000}),
		func(r io.Reader) (io.WriterTo, error) { return ReadFilter16(r) }},
	{"sharded8", phased(func() goldenFilter { return NewSharded8(24000, 4, Options{}) },
		goldenPhaseSpec{1, 2000, 3000}, goldenPhaseSpec{4, 1000, 4 * minParallelBatch}),
		readSharded},
	{"sharded16", phased(func() goldenFilter { return NewSharded16(24000, 4, Options{}) },
		goldenPhaseSpec{1, 2000, 3000}, goldenPhaseSpec{4, 1000, 4 * minParallelBatch}),
		readSharded},
	{"cfilter8", phased(func() goldenFilter { return NewCFilter8(1<<16, Options{}) },
		goldenPhaseSpec{1, 2000, 3000}, goldenPhaseSpec{4, 1000, 4 * minParallelBatch}),
		func(r io.Reader) (io.WriterTo, error) { return ReadCFilter8(r) }},
	{"cfilter16", phased(func() goldenFilter { return NewCFilter16(1<<16, Options{}) },
		goldenPhaseSpec{1, 2000, 3000}, goldenPhaseSpec{4, 1000, 4 * minParallelBatch}),
		func(r io.Reader) (io.WriterTo, error) { return ReadCFilter16(r) }},
	{"kv8", goldenKV8, func(r io.Reader) (io.WriterTo, error) { return ReadKV8(r) }},
}

func readSharded(r io.Reader) (io.WriterTo, error) {
	s8, s16, err := ReadSharded(r)
	if s8 != nil {
		return s8, err
	}
	return s16, err
}

// TestGoldenCoreStreams pins the serialized core filters after a scripted
// history of single-key and batch operations: the replay must reproduce the
// committed streams (one checkpoint per phase) byte for byte, and each
// checkpoint must survive Read → WriteTo unchanged. Batch inserts place keys
// in radix order, so the streams also pin the block and shard partitioners.
// Regenerate with `go test ./internal/core -run TestGoldenCoreStreams
// -update` only for a deliberate format change.
func TestGoldenCoreStreams(t *testing.T) {
	for _, tc := range goldenCoreCases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
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
				g, err := tc.read(r)
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
