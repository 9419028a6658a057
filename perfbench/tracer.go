package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, the
// span that caused it, the job it served, and the work it did (packets,
// cells or records, as the name implies).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Work   int64   `json:"work,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int, job string, work int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Job: job,
		Start: time.Since(t.epoch).Seconds(), Work: work})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Seconds()
}

func (t *tracer) setJob(id int, job string) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].Job = job
}

// timed runs fn inside a span and returns the span's duration in seconds.
func (t *tracer) timed(name string, parent int, work int64, fn func()) float64 {
	id := t.start(name, parent, "", work)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d
}

// layerTime is the total and self time of every span of one name, and
// the work they did. Self time is a span's duration minus the part its
// child spans cover.
type layerTime struct {
	Name        string
	Count       int
	Total, Self float64
	Work        int64
}

func (t *tracer) layers() []layerTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	var names []string
	for _, s := range t.spans {
		l := by[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			by[s.Name] = l
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		l.Count++
		l.Total += d
		l.Self += d - child[s.ID]
		l.Work += s.Work
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// perWork is the mean duration per unit of work over every span named
// name, in seconds.
func (t *tracer) perWork(name string) float64 {
	var d float64
	var w int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			w += s.Work
		}
	}
	if w == 0 {
		return 0
	}
	return d / float64(w)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
