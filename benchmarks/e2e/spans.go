package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"itr/internal/obs"
)

// span is one timed call into a layer. Spans live in memory until the traced
// run ends and are written out as Chrome trace JSON.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a workload's root span
	Name   string `json:"name"`
	// Lane is the display row: 0 for the calling goroutine, 1+w for the
	// injections campaign worker w ran.
	Lane  int           `json:"lane"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans relative to one epoch. It is used from one
// goroutine only.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// open starts a span under parent and returns its id.
func (r *recorder) open(name string, parent int) int {
	return r.add(span{Parent: parent, Name: name, Start: r.now()})
}

// close ends span id and returns its duration.
func (r *recorder) close(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = r.now()
	return s.dur()
}

// add stores a completed span and returns its id.
func (r *recorder) add(s span) int {
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// do runs fn inside a span named name under parent.
func (r *recorder) do(name string, parent int, fn func() error) (time.Duration, error) {
	id := r.open(name, parent)
	err := fn()
	return r.close(id), err
}

// selfTimes returns each span's duration minus the part of its interval that
// the union of its children covers. Children may overlap one another (the
// injections of parallel workers); the overlap is counted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix so far
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// injKey identifies an injection the way a campaign's Details do.
type injKey struct {
	DecodeIndex int64
	Bit         int
}

// injSpan is one injection run as a campaign worker ring recorded it.
type injSpan struct {
	Key        injKey
	Worker     int
	Start, End time.Duration
}

// pairInjections turns each worker ring's EvInjectStart/EvInjectClassify
// pairs into injection spans. A worker runs one injection at a time, so every
// start is closed by the next classify on the same ring. offset shifts ring
// timestamps (µs since the tracer started) onto the recorder's epoch.
func pairInjections(rings [][]obs.Event, offset time.Duration) ([]injSpan, error) {
	var out []injSpan
	for w, events := range rings {
		var open *injSpan
		for _, e := range events {
			ts := offset + time.Duration(e.TS)*time.Microsecond
			switch e.Kind {
			case obs.EvInjectStart:
				if open != nil {
					return nil, fmt.Errorf("worker %d: injection %d started before %d was classified", w, e.Cycle, open.Key.DecodeIndex)
				}
				open = &injSpan{Key: injKey{e.Cycle, int(e.Arg)}, Worker: w, Start: ts}
			case obs.EvInjectClassify:
				if open == nil || open.Key.DecodeIndex != e.Cycle {
					return nil, fmt.Errorf("worker %d: classify of injection %d without its start", w, e.Cycle)
				}
				open.End = ts
				out = append(out, *open)
				open = nil
			}
		}
		if open != nil {
			return nil, fmt.Errorf("worker %d: injection %d never classified", w, open.Key.DecodeIndex)
		}
	}
	return out, nil
}

// chromeEvent is one Chrome trace-event record ("X" complete span or "M"
// metadata), loadable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes each traced workload's spans as one process of a Chrome
// trace, with the parent link and self time in every span's args.
func writeChrome(w io.Writer, names []string, spans [][]span) error {
	var out []chromeEvent
	for i, ss := range spans {
		pid := i + 1
		out = append(out, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": names[i]}})
		self := selfTimes(ss)
		for _, s := range ss {
			out = append(out, chromeEvent{
				Name: s.Name, Ph: "X", PID: pid, TID: s.Lane,
				TS:  float64(s.Start) / 1e3,
				Dur: float64(s.dur()) / 1e3,
				Args: map[string]any{
					"id": s.ID, "parent": s.Parent,
					"self_us": float64(self[s.ID]) / 1e3,
				},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": out, "displayTimeUnit": "ms"})
}
