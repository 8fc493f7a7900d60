package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestNilTraceIsDisabledRecorder(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	// Every method must be a safe no-op on nil — the scheduler threads a
	// possibly-nil pointer through without branching.
	tr.Add(Span{Cat: CatShard, Name: "x"})
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace retained state")
	}
	if off := tr.Offset(time.Now()); off != 0 {
		t.Fatalf("nil trace offset %v", off)
	}
	if spans, dropped := tr.Snapshot(); spans != nil || dropped != 0 {
		t.Fatal("nil trace snapshot non-empty")
	}
}

func TestTraceRecordsAndOrders(t *testing.T) {
	tr := New(0)
	// Add out of start order; Snapshot must return canonical order.
	tr.Add(Span{Cat: CatShard, Name: "b", Config: 0, Shard: 2, Start: 30 * time.Millisecond, Dur: time.Millisecond})
	tr.Add(Span{Cat: CatPlan, Name: "plan", Config: -1, Worker: -1, Start: 0, Dur: time.Millisecond})
	tr.Add(Span{Cat: CatShard, Name: "a", Config: 1, Shard: 1, Start: 10 * time.Millisecond, Dur: time.Millisecond})
	tr.Add(Span{Cat: CatShard, Name: "a", Config: 0, Shard: 1, Start: 10 * time.Millisecond, Dur: time.Millisecond})
	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d spans under no pressure", dropped)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	wantOrder := []struct {
		name   string
		config int
	}{{"plan", -1}, {"a", 0}, {"a", 1}, {"b", 0}}
	for i, w := range wantOrder {
		if spans[i].Name != w.name || spans[i].Config != w.config {
			t.Fatalf("span %d = %q config %d, want %q config %d",
				i, spans[i].Name, spans[i].Config, w.name, w.config)
		}
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("snapshot not monotonic at %d", i)
		}
	}
}

func TestTraceByteBoundDropsNotGrows(t *testing.T) {
	// Budget for ~4 small spans; everything past it must be counted as
	// dropped, not buffered.
	tr := New(4 * (spanBytes + int64(len(CatShard)+1)))
	for i := 0; i < 100; i++ {
		tr.Add(Span{Cat: CatShard, Name: "x"})
	}
	if tr.Len() != 4 {
		t.Fatalf("retained %d spans, want 4", tr.Len())
	}
	if tr.Dropped() != 96 {
		t.Fatalf("dropped %d spans, want 96", tr.Dropped())
	}
	if _, dropped := tr.Snapshot(); dropped != 96 {
		t.Fatalf("snapshot dropped %d, want 96", dropped)
	}
}

// TestTraceMemoryWithinLimit: the budget bounds what a trace really holds,
// the span array's whole capacity at the Span's real size plus the
// retained strings, not only the spans appended so far.
func TestTraceMemoryWithinLimit(t *testing.T) {
	for _, limit := range []int64{1000, 4096, 50_000, 1 << 20} {
		tr := New(limit)
		for i := 0; i < 20_000; i++ {
			tr.Add(Span{Cat: CatShard, Name: fmt.Sprintf("exp-%d", i%7), Label: strings.Repeat("x", i%23)})
		}
		if tr.Dropped() == 0 {
			t.Fatalf("limit %d: nothing dropped, the trace was not filled past its limit", limit)
		}
		held := int64(cap(tr.spans)) * int64(unsafe.Sizeof(Span{}))
		for _, s := range tr.spans {
			held += int64(len(s.Cat) + len(s.Name) + len(s.Label) + len(s.Origin) + len(s.Err))
		}
		if held > limit {
			t.Fatalf("limit %d: trace holds %d bytes (%d spans, capacity %d)", limit, held, tr.Len(), cap(tr.spans))
		}
		if tr.Len()+tr.Dropped() != 20_000 {
			t.Fatalf("limit %d: %d retained + %d dropped, want 20000", limit, tr.Len(), tr.Dropped())
		}
	}
}

// TestTraceConcurrentAdd is the -race exercise: many goroutines recording
// into one trace while another snapshots mid-flight.
func TestTraceConcurrentAdd(t *testing.T) {
	tr := New(0)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Add(Span{
					Cat: CatShard, Name: fmt.Sprintf("exp-%d", w),
					Worker: w, Shard: i + 1,
					Start: time.Duration(i) * time.Microsecond,
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Snapshot()
			tr.Len()
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Len(); got != workers*perWorker {
		t.Fatalf("retained %d spans, want %d", got, workers*perWorker)
	}
	spans, _ := tr.Snapshot()
	perW := map[int]int{}
	for _, s := range spans {
		perW[s.Worker]++
	}
	for w := 0; w < workers; w++ {
		if perW[w] != perWorker {
			t.Fatalf("worker %d recorded %d spans, want %d", w, perW[w], perWorker)
		}
	}
}

func TestOffsetAndSince(t *testing.T) {
	tr := New(0)
	at := time.Now().Add(250 * time.Millisecond)
	if off := tr.Offset(at); off <= 0 || off > time.Second {
		t.Fatalf("offset %v outside expected window", off)
	}
	if s := tr.Offset(time.Now()); s < 0 || s > time.Minute {
		t.Fatalf("offset of now %v implausible", s)
	}
}
