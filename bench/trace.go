package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the span that caused it (-1 for a root); spans are only ever
// recorded from the benchmark's own files, around calls into internal/.
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	// ID and SelfNs are filled in when the trace is written: ID is the
	// span's line index, SelfNs its duration minus the part of it that its
	// children cover.
	ID     int   `json:"id"`
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// "tracing off" state: every method is a no-op, so the end-to-end runs pay
// one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(workload, name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: s, EndNs: s + d.Nanoseconds(), Parent: parent, Workload: workload})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// open records a span whose end is not yet known; close it with finish.
// Parents are opened before their children so children can name them.
func (t *tracer) open(workload, name string, parent int) int {
	return t.add(workload, name, parent, time.Now(), 0)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = end
	t.mu.Unlock()
}

// selfTimes fills ID and SelfNs: a span's self time is its duration minus
// the union of its children's intervals, clipped to the span (children may
// overlap one another — concurrent Infer calls under one phase do).
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i := range spans {
		spans[i].ID = i
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}

// write derives self times and writes one JSON object per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	selfTimes(t.spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
