package report

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"zen2ee/internal/obs"
)

func sampleSpans() []obs.Span {
	return []obs.Span{
		{Cat: obs.CatPlan, Name: "plan", Config: -1, Worker: -1, Start: 0, Dur: 120 * time.Microsecond},
		{Cat: obs.CatShard, Name: "fig7", Config: 0, Shard: 1, Label: "series-a", Worker: 0,
			Start: 200 * time.Microsecond, Dur: 3 * time.Millisecond, Wait: 150 * time.Microsecond},
		{Cat: obs.CatShard, Name: "fig7", Config: 0, Shard: 2, Label: "series-b", Worker: 1,
			Start: 210 * time.Microsecond, Dur: 2 * time.Millisecond, Wait: 160 * time.Microsecond,
			Err: "shard exploded"},
		{Cat: obs.CatReduce, Name: "fig7", Config: 0, Worker: 1, Start: 4 * time.Millisecond, Dur: 50 * time.Microsecond},
		{Cat: obs.CatDeliver, Name: "deliver", Config: 0, Worker: -1, Start: 5 * time.Millisecond, Dur: 80 * time.Microsecond},
		{Cat: obs.CatMarshal, Name: "marshal", Config: 0, Worker: -1, Start: 5*time.Millisecond + 10*time.Microsecond, Dur: 60 * time.Microsecond},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	spans := sampleSpans()
	b, err := MarshalTrace(spans, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := UnmarshalTrace(b)
	if err != nil {
		t.Fatalf("decoding own output: %v", err)
	}
	events := doc.CompleteEvents()
	if len(events) != len(spans) {
		t.Fatalf("%d complete events, want %d", len(events), len(spans))
	}
	// Spans serialize in canonical start order → monotonic ts.
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Fatalf("ts not monotonic at event %d: %g after %g", i, events[i].TS, events[i-1].TS)
		}
	}
	// The failed shard carries its error and queue wait in args.
	var found bool
	for _, e := range events {
		if e.Cat == obs.CatShard && e.Args["error"] == "shard exploded" {
			found = true
			if e.Args["shard"] != float64(2) {
				t.Fatalf("failed shard args %v", e.Args)
			}
			if e.Args["queue_wait_us"] != 160.0 {
				t.Fatalf("queue wait %v, want 160", e.Args["queue_wait_us"])
			}
			if e.Name != "fig7/series-b" {
				t.Fatalf("shard event name %q", e.Name)
			}
		}
	}
	if !found {
		t.Fatal("failed shard span not exported")
	}
	// Thread metadata names the scheduler plus each worker track.
	names := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			names[e.TID] = e.Args["name"].(string)
		}
	}
	if names[0] != "scheduler" || names[1] != "worker 0" || names[2] != "worker 1" {
		t.Fatalf("thread names %v", names)
	}
}

// TestTraceDeterministicAcrossInputOrder pins the property the scheduler
// tests rely on: the exported bytes depend on the span *set*, not the
// completion order the workers recorded it in. The reference input is in
// canonical order, as a Snapshot returns it, so MarshalTrace reads it in
// place while each shuffle takes the sorted-copy path, which must leave
// its input as it was.
func TestTraceDeterministicAcrossInputOrder(t *testing.T) {
	spans := sampleSpans()
	if !obs.CanonicalOrder(spans) {
		t.Fatal("sampleSpans is not in canonical order")
	}
	want, err := MarshalTrace(spans, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]obs.Span(nil), spans...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		before := append([]obs.Span(nil), shuffled...)
		got, err := MarshalTrace(shuffled, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shuffled, before) {
			t.Fatalf("trial %d: MarshalTrace reordered its input", trial)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: shuffled input changed the exported bytes", trial)
		}
	}
}

func TestTraceDroppedSpansSurface(t *testing.T) {
	b, err := MarshalTrace(sampleSpans(), 7)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := UnmarshalTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if doc.OtherData["droppedSpans"] != float64(7) {
		t.Fatalf("otherData %v, want droppedSpans 7", doc.OtherData)
	}
}

func TestWriteChromeTraceNewlineTerminated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleSpans(), 0); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if len(out) == 0 || out[len(out)-1] != '\n' {
		t.Fatal("trace file not newline-terminated")
	}
	if _, err := UnmarshalTrace(out); err != nil {
		t.Fatalf("written file does not decode: %v", err)
	}
}

func TestUnmarshalTraceRejectsDrift(t *testing.T) {
	if _, err := UnmarshalTrace([]byte(`{"traceEvents":[],"surprise":1}`)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	if _, err := UnmarshalTrace([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEmptyTraceStillValid(t *testing.T) {
	b, err := MarshalTrace(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := UnmarshalTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.CompleteEvents(); len(got) != 0 {
		t.Fatalf("empty trace has %d complete events", len(got))
	}
}
