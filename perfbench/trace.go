package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The traced run records spans from the benchmark's own code, around each
// call into a layer's public entry point; nothing inside the program is
// traced. Spans stay in memory and are written out when the run ends.

// layer names a span. Each step (one group of same-kind ops, one batch
// call, or one wire request) gets a step span; beneath it each layer call
// gets one span.
type layer uint8

const (
	lStep    layer = iota
	lService       // internal/service: vqfd client round trip
	lFacade        // vqf: the public filter call
	lHash          // internal/hashing: the facade's per-key hash
	lElastic       // internal/elastic
	lCore          // internal/core
	lKernel        // internal/minifilter + internal/swar
	numLayers
)

var layerNames = [numLayers]string{"step", "service", "vqf", "vqf.hash", "elastic", "core", "kernel"}

// Op kinds of a step.
const (
	opNeg uint8 = iota // lookup of never-inserted keys
	opPos              // lookup of live keys
	opInsert
	opRemove
	opPing // empty service round trip
	numOpKinds
)

var opNames = [numOpKinds]string{"lookup_neg", "lookup_pos", "insert", "remove", "ping"}

// span is one recorded interval; id is its index in the tracer plus one,
// parent 0 marks a step, req is the step (request) id all its spans share.
type span struct {
	start, end int64 // ns since the tracer's base
	id, parent uint32
	req        uint32
	name       layer
	kind       uint8
	keys       uint16
}

// tracer holds one goroutine's spans. Tracers that share a base can be
// merged for output.
type tracer struct {
	base  time.Time
	idOff uint32 // keeps span ids unique across merged tracers
	spans []span
	req   uint32
}

func newTracer(base time.Time, idOff uint32, capHint int) *tracer {
	return &tracer{base: base, idOff: idOff, spans: make([]span, 0, capHint)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// beginStep opens a step span and returns its index.
func (t *tracer) beginStep(kind uint8, keys int) int {
	t.req++
	id := t.idOff + uint32(len(t.spans)) + 1
	t.spans = append(t.spans, span{start: t.now(), id: id, req: t.idOff + t.req, name: lStep, kind: kind, keys: uint16(keys)})
	return len(t.spans) - 1
}

// begin opens a layer span under step and returns its index.
func (t *tracer) begin(step int, name layer) int {
	s := &t.spans[step]
	id := t.idOff + uint32(len(t.spans)) + 1
	t.spans = append(t.spans, span{start: t.now(), id: id, parent: s.id, req: s.req, name: name, kind: s.kind, keys: s.keys})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = t.now() }

// rung is one layer call of the ladder.
type rung struct {
	name layer
	call func()
}

// climb runs a step's layer calls, each in its own span, in ladder order
// on odd steps and bottom-up on even ones: every layer then runs as often
// right after another layer's call as first, so that cost (evicted cache
// lines, box drift) does not fall on one layer only.
func (t *tracer) climb(step int, rungs []rung) {
	reverse := t.spans[step].req%2 == 0
	for i := range rungs {
		r := rungs[i]
		if reverse {
			r = rungs[len(rungs)-1-i]
		}
		sp := t.begin(step, r.name)
		r.call()
		t.end(sp)
	}
}

// stepTimes is one step's span durations by layer.
type stepTimes struct {
	kind uint8
	keys int
	d    [numLayers]float64 // ns; 0 for layers the step did not call
}

// steps folds each tracer's spans into per-step durations. A step's spans
// are contiguous within its tracer.
func steps(ts ...*tracer) []stepTimes {
	var out []stepTimes
	for _, t := range ts {
		for _, s := range t.spans {
			d := float64(s.end - s.start)
			if s.name == lStep {
				out = append(out, stepTimes{kind: s.kind, keys: int(s.keys)})
			}
			out[len(out)-1].d[s.name] += d
		}
	}
	return out
}

// perKey returns, for steps of the given kinds, layer l's time per key.
func perKey(st []stepTimes, l layer, kinds ...uint8) []float64 {
	var out []float64
	for _, s := range st {
		if s.d[l] > 0 && hasKind(kinds, s.kind) {
			out = append(out, s.d[l]/float64(s.keys))
		}
	}
	return out
}

// selfPerKey returns layer outer's time minus layer inner's, per key: the
// outer layer's self time on the same ops.
func selfPerKey(st []stepTimes, outer, inner layer, kinds ...uint8) []float64 {
	var out []float64
	for _, s := range st {
		if s.d[outer] > 0 && hasKind(kinds, s.kind) {
			out = append(out, (s.d[outer]-s.d[inner])/float64(s.keys))
		}
	}
	return out
}

func hasKind(kinds []uint8, k uint8) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// overheadFrac is the steps' uncovered time (step span minus its layer
// spans: span bookkeeping) over the time the layer spans cover.
func overheadFrac(st []stepTimes) float64 {
	var covered, self float64
	for _, s := range st {
		var c float64
		for l := lStep + 1; l < numLayers; l++ {
			c += s.d[l]
		}
		covered += c
		self += s.d[lStep] - c
	}
	return ratio(self, covered)
}

// writeSpans writes every span as gzip-compressed CSV to
// dir/<workload>-seed<seed>.csv.gz.
func writeSpans(dir, workload string, seed uint64, ts ...*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // BestSpeed is a valid level
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(bw, "id,parent,req,name,op,keys,start_ns,end_ns")
	for _, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(bw, "%d,%d,%d,%s,%s,%d,%d,%d\n", s.id, s.parent, s.req, layerNames[s.name], opNames[s.kind], s.keys, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
