package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the public function it calls.
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Layer  string // the package the call enters: experiment, pipeline, ...
	Start  time.Duration
	End    time.Duration
	Args   map[string]any
}

// tracer keeps spans in memory and writes them once, at the end of the run,
// as Chrome trace-event JSON. A nil *tracer records nothing, so the untraced
// path pays one nil check per call site.
type tracer struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id; args, if given, are attached to it.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if args != nil {
		s.Args = args
	}
}

// add records an already-timed span (for intervals observed through a
// callback, where the start was seen before the span could be opened).
func (t *tracer) add(parent int, layer, name string, start, end time.Time, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Args: args})
	return len(t.spans)
}

// traceEvent is one Chrome trace-event ("X" = complete event). Perfetto and
// chrome://tracing both open a file of these.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file. Spans are
// laid out one track per nesting depth so parent and child never overlap on
// a track; every event carries its id, parent id and the shared run id.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	depth := make([]int, len(t.spans)+1)
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if s.Parent != 0 {
			depth[s.ID] = depth[s.Parent] + 1
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "run_id": t.runID}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: depth[s.ID] + 1, Args: args,
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
