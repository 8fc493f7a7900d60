// Chrome trace-event serialization for execution traces. An obs.Trace
// snapshot renders to the JSON Object Format of the Trace Event spec —
// one complete ("ph":"X") event per span, timestamps in microseconds from
// the trace epoch, worker attribution mapped onto thread IDs with
// metadata naming — so `zen2ee run/sweep -trace out.json` and the
// daemon's /v1/jobs/{id}/trace payloads load directly into Perfetto or
// chrome://tracing. Like every document in this package the encoding is
// deterministic: spans serialize in obs canonical order (start offset
// with fixed tie-breaks), so the same run produces the same bytes
// regardless of which worker recorded first.

package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"zen2ee/internal/obs"
)

// TraceEvent is one Chrome trace-event. Complete events ("ph":"X") carry
// ts/dur in microseconds; metadata events ("ph":"M") name processes and
// threads.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceDoc is the trace file's top-level object.
type TraceDoc struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// tracePID is the single process every span belongs to; the pipeline is
// one process, threads are scheduler workers.
const tracePID = 1

// traceTID maps a span's worker index onto a Chrome thread ID: workers
// start at 1, and 0 is the scheduler track (plan, deliver, marshal spans
// recorded outside the worker pool).
func traceTID(worker int) int {
	if worker < 0 {
		return 0
	}
	return worker + 1
}

// remoteTIDBase is where remote-worker tracks start: spans carrying an
// Origin (shards executed by a distributed worker, internal/dist) map onto
// tids remoteTIDBase+i in sorted-origin order, far above any plausible
// local goroutine count, so local and remote lanes never collide.
const remoteTIDBase = 1000

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// MarshalTrace renders spans plus a dropped-span count into Chrome
// trace-event JSON bytes. Spans may come in any order: input already in
// canonical order (an obs.Trace.Snapshot) is read in place, anything else
// is sorted on a copy, so spans itself is never reordered.
func MarshalTrace(spans []obs.Span, dropped int) ([]byte, error) {
	ordered := spans
	if !obs.CanonicalOrder(spans) {
		ordered = append([]obs.Span(nil), spans...)
		obs.SortSpans(ordered)
	}

	// Thread metadata first: name every track that appears, in tid order,
	// so viewers label the scheduler, worker, and remote-worker lanes.
	// Remote origins get deterministic tids in sorted-origin order.
	origins := map[string]bool{}
	for _, s := range ordered {
		if s.Origin != "" {
			origins[s.Origin] = true
		}
	}
	sortedOrigins := make([]string, 0, len(origins))
	for o := range origins {
		sortedOrigins = append(sortedOrigins, o)
	}
	sort.Strings(sortedOrigins)
	originTID := make(map[string]int, len(sortedOrigins))
	for i, o := range sortedOrigins {
		originTID[o] = remoteTIDBase + i
	}
	tidFor := func(s obs.Span) int {
		if s.Origin != "" {
			return originTID[s.Origin]
		}
		return traceTID(s.Worker)
	}
	tids := map[int]bool{}
	for _, s := range ordered {
		tids[tidFor(s)] = true
	}
	sortedTIDs := make([]int, 0, len(tids))
	for tid := range tids {
		sortedTIDs = append(sortedTIDs, tid)
	}
	sort.Ints(sortedTIDs)

	doc := TraceDoc{
		TraceEvents:     make([]TraceEvent, 0, len(ordered)+len(sortedTIDs)+1),
		DisplayTimeUnit: "ms",
	}
	doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "zen2ee pipeline"},
	})
	for _, tid := range sortedTIDs {
		name := "scheduler"
		switch {
		case tid >= remoteTIDBase:
			name = "remote " + sortedOrigins[tid-remoteTIDBase]
		case tid > 0:
			name = fmt.Sprintf("worker %d", tid-1)
		}
		doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range ordered {
		ev := TraceEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: usec(s.Start), Dur: usec(s.Dur),
			PID: tracePID, TID: tidFor(s),
			Args: map[string]any{},
		}
		if s.Shard > 0 && s.Label != "" {
			ev.Name = s.Name + "/" + s.Label
		}
		if s.Config >= 0 {
			ev.Args["config"] = s.Config
		}
		if s.Shard > 0 {
			ev.Args["shard"] = s.Shard
		}
		if s.Label != "" {
			ev.Args["label"] = s.Label
		}
		if s.Wait > 0 {
			ev.Args["queue_wait_us"] = usec(s.Wait)
		}
		if s.Origin != "" {
			ev.Args["worker"] = s.Origin
		}
		if s.Err != "" {
			ev.Args["error"] = s.Err
		}
		if len(ev.Args) == 0 {
			ev.Args = nil
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	if dropped > 0 {
		doc.OtherData = map[string]any{"droppedSpans": dropped}
	}
	return json.Marshal(doc)
}

// WriteChromeTrace writes the Chrome trace-event document for a span
// snapshot, newline-terminated.
func WriteChromeTrace(w io.Writer, spans []obs.Span, dropped int) error {
	b, err := MarshalTrace(spans, dropped)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// UnmarshalTrace decodes a Chrome trace-event document produced by
// MarshalTrace — the round-trip half the export tests (and any tooling
// re-reading a trace file) build on. Unknown top-level or event fields
// are an error: the decoder exists to catch schema drift, not mask it.
func UnmarshalTrace(b []byte) (*TraceDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var doc TraceDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("report: decoding trace document: %w", err)
	}
	return &doc, nil
}

// CompleteEvents filters a decoded trace down to its span ("ph":"X")
// events, dropping metadata.
func (d *TraceDoc) CompleteEvents() []TraceEvent {
	var out []TraceEvent
	for _, e := range d.TraceEvents {
		if e.Ph == "X" {
			out = append(out, e)
		}
	}
	return out
}
