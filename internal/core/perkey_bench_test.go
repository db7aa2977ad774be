package core

import (
	"testing"

	"vqf/internal/workload"
)

// perKeySink keeps the timed lookups' results live.
var perKeySink bool

// perKeyFilter is the single-key surface BenchmarkPerKey times.
type perKeyFilter interface {
	Insert(h uint64) bool
	Contains(h uint64) bool
	Remove(h uint64) bool
}

// BenchmarkPerKey times single-key Insert, Contains (positive and negative)
// and Remove on 2^13-block filters between 75% and 83% load, where the
// shortcut threshold and two-choice placement are both in play. Insert
// fills from 75% to 83% and Remove drains back, each undoing its work with
// the timer stopped once the band is crossed; the lookups probe a filter
// held at 83%.
func BenchmarkPerKey(b *testing.B) {
	const blocks = 1 << 13
	for _, tc := range []struct {
		name  string
		slots uint64
		mk    func(nslots uint64) perKeyFilter
	}{
		{"Filter16", blocks * 28, func(n uint64) perKeyFilter { return NewFilter16(n, Options{}) }},
		{"CFilter16", blocks * 28, func(n uint64) perKeyFilter { return NewCFilter16(n, Options{}) }},
		{"Filter8", blocks * 48, func(n uint64) perKeyFilter { return NewFilter8(n, Options{}) }},
		{"CFilter8", blocks * 48, func(n uint64) perKeyFilter { return NewCFilter8(n, Options{}) }},
	} {
		low, high := int(tc.slots*75/100), int(tc.slots*83/100)
		keys := workload.NewStream(1).Keys(high)
		fresh := workload.NewStream(2).Keys(1 << 16)
		fill := func(n int) perKeyFilter {
			f := tc.mk(tc.slots)
			for _, h := range keys[:n] {
				if !f.Insert(h) {
					b.Fatal("fill failed")
				}
			}
			return f
		}
		b.Run(tc.name+"/Insert", func(b *testing.B) {
			f := fill(low)
			b.ResetTimer()
			for i, j := 0, low; i < b.N; i, j = i+1, j+1 {
				if j == high {
					b.StopTimer()
					for _, h := range keys[low:high] {
						f.Remove(h)
					}
					j = low
					b.StartTimer()
				}
				f.Insert(keys[j])
			}
		})
		b.Run(tc.name+"/ContainsPos", func(b *testing.B) {
			f := fill(high)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perKeySink = f.Contains(keys[i%high])
			}
		})
		b.Run(tc.name+"/ContainsNeg", func(b *testing.B) {
			f := fill(high)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perKeySink = f.Contains(fresh[i&(len(fresh)-1)])
			}
		})
		b.Run(tc.name+"/Remove", func(b *testing.B) {
			f := fill(high)
			b.ResetTimer()
			for i, j := 0, high; i < b.N; i, j = i+1, j-1 {
				if j == low {
					b.StopTimer()
					for _, h := range keys[low:high] {
						f.Insert(h)
					}
					j = high
					b.StartTimer()
				}
				f.Remove(keys[j-1])
			}
		})
	}
}
