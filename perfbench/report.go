package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
)

// quantile returns the q-quantile (nearest rank) of xs, sorting it in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fprGate checks a measured false-positive count against the budget eps
// with a binomial margin of five standard deviations.
func fprGate(o *outcome, fps, negatives uint64, eps float64) {
	n := float64(negatives)
	limit := n*eps + 5*math.Sqrt(n*eps*(1-eps)) + 5
	o.gate(float64(fps) <= limit, "false positives %d of %d exceed budget %.3g (limit %.1f)", fps, negatives, eps, limit)
}

// freeMemory returns a dropped filter's pages before the next set-up, so
// repeated set-ups do not stack their tables.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// libTimes collects one closed loop's timed units (call groups, batch calls
// or requests) over all repeats of the workload's op sequence, keeping for
// each position in the sequence its fastest repeat.
//
// The host gives the benchmark vCPUs that share physical cores and caches
// with other tenants. A busy neighbour slows whatever it overlaps by up to
// 2x, sometimes for a few microseconds and sometimes for tens of seconds (a
// fixed L1 loop timed in 10 µs chunks runs at 0.4 ns per iteration in some
// chunks of nearly every second and at 0.8 ns in most). A median over units
// then measures how busy the neighbour was. What a run can measure
// repeatably is the program's cost when it is not slowed. So every workload
// runs the same op sequence several times, spread over the run, and keeps
// for each position in the sequence the fastest of its repeats. Every
// repeat must time the same sequence of unit kinds and sizes.
type libTimes struct {
	repeats int    // repeats begun
	next    int    // position of the next unit in the current repeat
	units   []unit // the first repeat's units, each with its least time so far
	err     error  // a repeat that differed from the first
}

// unit is one timed call group, batch call or request.
type unit struct {
	kind    uint8
	request bool // counted in request_us
	keys    int32
	ns      float64
}

// repeat begins the next repeat of the op sequence.
func (lt *libTimes) repeat() {
	lt.end()
	lt.repeats++
	lt.next = 0
}

// end checks that the current repeat, if any after the first, ran the
// whole sequence.
func (lt *libTimes) end() {
	if lt.repeats > 1 && lt.next != len(lt.units) && lt.err == nil {
		lt.err = fmt.Errorf("repeat %d timed %d units, the first %d", lt.repeats, lt.next, len(lt.units))
	}
}

func (lt *libTimes) add(kind uint8, keys int, ns float64, request bool) {
	if lt.repeats <= 1 {
		lt.units = append(lt.units, unit{kind: kind, request: request, keys: int32(keys), ns: ns})
		return
	}
	i := lt.next
	lt.next++
	if i >= len(lt.units) || lt.units[i].kind != kind || lt.units[i].keys != int32(keys) {
		if lt.err == nil {
			lt.err = fmt.Errorf("repeat %d differs from the first at unit %d", lt.repeats, i)
		}
		return
	}
	lt.units[i].ns = min(lt.units[i].ns, ns)
}

// perKeyNs returns the ns-per-key samples of units of the given kinds.
func perKeyNs(us []unit, kinds ...uint8) []float64 {
	var out []float64
	for _, u := range us {
		if hasKind(kinds, u.kind) {
			out = append(out, u.ns/float64(u.keys))
		}
	}
	return out
}

// setTimes sets the end-to-end timing metrics from the fastest repeats of
// one or more closed loops that ran at the same time: the per-key times by
// op kind (medians over positions), request_us (the mean request) and
// mops (each loop's keys over its summed time, added over loops).
func (o *outcome) setTimes(loops ...*libTimes) error {
	var all []unit
	var rate float64
	for _, lt := range loops {
		if lt.end(); lt.err != nil {
			return lt.err
		}
		all = append(all, lt.units...)
		var keys, ns float64
		for _, u := range lt.units {
			keys += float64(u.keys)
			ns += u.ns
		}
		rate += ratio(keys*1e3, ns)
	}
	o.set("insert_ns", median(perKeyNs(all, opInsert)))
	o.set("lookup_pos_ns", median(perKeyNs(all, opPos)))
	o.set("lookup_neg_ns", median(perKeyNs(all, opNeg)))
	o.set("remove_ns", median(perKeyNs(all, opRemove)))
	var reqs, reqNs float64
	for _, u := range all {
		if u.request {
			reqs++
			reqNs += u.ns
		}
	}
	o.set("request_us", ratio(reqNs, reqs)/1e3)
	o.set("mops", rate)
	return nil
}

// reportCoreTimes sets the core layer's per-key times by op kind.
func reportCoreTimes(o *outcome, st []stepTimes) {
	o.set("core.insert_ns", median(perKey(st, lCore, opInsert)))
	o.set("core.lookup_pos_ns", median(perKey(st, lCore, opPos)))
	o.set("core.lookup_neg_ns", median(perKey(st, lCore, opNeg)))
	o.set("core.remove_ns", median(perKey(st, lCore, opRemove)))
}

// reportKernel sets the kernel layer's per-call times.
func reportKernel(o *outcome, st []stepTimes) {
	o.set("kernel.probe_ns", median(perKey(st, lKernel, opNeg, opPos)))
	o.set("kernel.insert_ns", median(perKey(st, lKernel, opInsert)))
	o.set("kernel.remove_ns", median(perKey(st, lKernel, opRemove)))
}
