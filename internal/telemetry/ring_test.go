package telemetry

import (
	"sync"
	"testing"
)

func TestRingOrderAndWrap(t *testing.T) {
	r := NewRing(16)
	if r.Events() != nil && len(r.Events()) != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := uint64(1); i <= 5; i++ {
		r.Record(EvElasticGrow, i, i*10, i*100)
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("%d events, want 5", len(evs))
	}
	for i, ev := range evs {
		want := uint64(i + 1)
		if ev.Seq != want || ev.A != want || ev.B != want*10 || ev.C != want*100 {
			t.Fatalf("event %d: %+v", i, ev)
		}
		if ev.Kind != "elastic-grow" {
			t.Fatalf("kind %q", ev.Kind)
		}
		if ev.TimeUnixNano == 0 {
			t.Fatal("missing timestamp")
		}
		if i > 0 && ev.TimeUnixNano < evs[i-1].TimeUnixNano {
			t.Fatal("events out of time order")
		}
	}

	// Overflow: only the newest 16 survive, oldest first.
	for i := uint64(6); i <= 40; i++ {
		r.Record(EvSeqlockFallback, i, 0, 0)
	}
	evs = r.Events()
	if len(evs) != 16 {
		t.Fatalf("%d events after wrap, want 16", len(evs))
	}
	if evs[0].Seq != 25 || evs[15].Seq != 40 {
		t.Fatalf("wrap window [%d, %d], want [25, 40]", evs[0].Seq, evs[15].Seq)
	}
}

// TestRingConcurrent drives many concurrent recorders while a reader
// drains; under -race this is the event-ring race gate. Drained events
// must always be internally consistent (the A/B/C triple a writer stored
// together) even when the ring is wrapping at full speed.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := uint64(w)<<32 | uint64(i)
				r.Record(EvShardClaimStall, v, v+1, v+2)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Events() {
				if ev.B != ev.A+1 || ev.C != ev.A+2 {
					t.Errorf("torn event: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWg.Wait()

	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("%d events after quiesce, want full ring of 64", len(evs))
	}
	if last := evs[len(evs)-1].Seq; last != workers*perWorker {
		t.Fatalf("last seq %d, want %d", last, workers*perWorker)
	}
}

func TestRingNil(t *testing.T) {
	var r *Ring
	r.Record(EvElasticGrow, 1, 2, 3) // must not panic
	if r.Events() != nil {
		t.Fatal("nil ring returned events")
	}
}

func TestEventKindStrings(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[k.String()]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, k.String())
		}
		seen[k.String()] = k
	}
	// Structural-op kinds come in start/finish pairs with stable names.
	for k, want := range map[EventKind]string{
		EvCompactStart: "compact-start", EvCompactFinish: "compact-finish",
		EvFreezeStart: "freeze-start", EvFreezeFinish: "freeze-finish",
		EvThawStart: "thaw-start", EvThawFinish: "thaw-finish",
	} {
		if k.String() != want {
			t.Fatalf("kind %d is %q, want %q", k, k.String(), want)
		}
	}
	if EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}
