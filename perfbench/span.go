package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Spans recorded by the benchmark's own code around each call into a
// layer's public functions. They are kept in memory during the traced
// half of a -trace 1 run and written out when it ends; nothing is
// recorded inside program code.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root (the op itself)
	Op     int    `json:"op"`     // shared by every span of one op
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder collects spans. A nil *recorder records nothing, so the
// untraced path calls the same code with tracing off.
type recorder struct {
	epoch time.Time
	spans []span
	op    int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginOp starts a new op and returns its root span index.
func (r *recorder) beginOp(name string) int {
	if r == nil {
		return -1
	}
	r.op++
	return r.begin(-1, name)
}

// begin opens a span under parent (a span index, or -1 for a root).
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return -1
	}
	p := 0
	if parent >= 0 {
		p = r.spans[parent].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: p, Op: r.op, Name: name,
		Start: time.Since(r.epoch).Nanoseconds(),
	})
	return len(r.spans) - 1
}

// add records a finished root span of its own op.
func (r *recorder) add(name string, start, end time.Time) {
	r.op++
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Op: r.op, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = time.Since(r.epoch).Nanoseconds()
}

// selfMS sums, per span name, each span's duration minus the time its
// children cover, in milliseconds.
func (r *recorder) selfMS() map[string]float64 {
	child := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range r.spans {
		self[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return self
}

// totalMS sums the inclusive duration of every span named name.
func (r *recorder) totalMS(name string) float64 {
	var t int64
	for _, s := range r.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return float64(t) / 1e6
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
