package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Times are nanoseconds since the tracer's epoch; parent is the
// index of the enclosing span (-1 for a pass's root span); run identifies
// the pass the span belongs to.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark exits. A nil *tracer is
// the untraced run: begin and end cost one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	run   int    // guarded by mu
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// startRun opens a new pass with its root span and returns the root's id.
func (t *tracer) startRun() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
	return t.begin("pass", -1)
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// wrap times fn as a span named name under parent.
func (t *tracer) wrap(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// runSpans returns a copy of the spans of the current pass.
func (t *tracer) runSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Run == t.run {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// The layer ladder. A span's layer is the prefix of its name before the
// first dot; its depth orders layers from the outside in.
var layerDepth = map[string]int{
	"experiments": 1, "trace": 1, "cluster": 1,
	"longbench": 2, "engine": 2,
	"accel": 3, "attention": 3,
}

// layers lists the ladder in report order.
var layers = []string{"accel", "attention", "longbench", "experiments", "engine", "cluster", "trace"}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// attribution splits the wall time of one pass among layers. At every
// instant the deepest layer with an open span owns the time (split evenly
// between concurrent spans at that depth); instants covered only by the
// pass's root span are unattributed. The per-layer seconds therefore sum to
// the pass's wall time, even when spans run on several goroutines.
type attribution struct {
	wallSec float64
	sec     map[string]float64 // exclusive wall seconds per layer; "" = unattributed
	busy    map[string]float64 // summed span durations per span name
	calls   map[string]int     // span count per span name
}

func attribute(spans []span) attribution {
	a := attribution{sec: map[string]float64{}, busy: map[string]float64{}, calls: map[string]int{}}
	type edge struct {
		at    int64
		delta int
		layer string
	}
	var edges []edge
	var lo, hi int64
	for _, s := range spans {
		if s.Parent < 0 {
			lo, hi = s.Start, s.End
			continue
		}
		a.busy[s.Name] += float64(s.End-s.Start) / 1e9
		a.calls[s.Name]++
		l := layerOf(s.Name)
		edges = append(edges, edge{s.Start, 1, l}, edge{s.End, -1, l})
	}
	a.wallSec = float64(hi-lo) / 1e9
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	open := map[string]int{}
	prev := lo
	for i := 0; i <= len(edges); i++ {
		at := hi
		if i < len(edges) {
			at = edges[i].at
		}
		if at > prev {
			dur := float64(at-prev) / 1e9
			deepest, n := 0, 0
			for l, c := range open {
				if c == 0 {
					continue
				}
				switch d := layerDepth[l]; {
				case d > deepest:
					deepest, n = d, c
				case d == deepest:
					n += c
				}
			}
			if n == 0 {
				a.sec[""] += dur
			} else {
				for l, c := range open {
					if c > 0 && layerDepth[l] == deepest {
						a.sec[l] += dur * float64(c) / float64(n)
					}
				}
			}
			prev = at
		}
		if i < len(edges) {
			open[edges[i].layer] += edges[i].delta
		}
	}
	return a
}

// share returns a layer's fraction of the pass's wall time.
func (a attribution) share(layer string) float64 {
	if a.wallSec <= 0 {
		return 0
	}
	return a.sec[layer] / a.wallSec
}
