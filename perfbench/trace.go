package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. All spans of
// one request share Req; Parent is the span that caused this one (0 for
// a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// Spans are recorded only by the benchmark, around its own calls into
// the program's public functions.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span being timed.
type open struct {
	t      *tracer
	id     uint64
	parent uint64
	req    int64
	name   string
	start  time.Time
}

// start opens a span. On a nil tracer it still times the call, so code
// paths that are traced only sometimes can use one spelling.
func (t *tracer) start(name string, req int64, parent uint64) *open {
	sp := &open{t: t, parent: parent, req: req, name: name}
	if t != nil {
		sp.id = t.next.Add(1)
	}
	sp.start = time.Now()
	return sp
}

// end closes the span, records it (on a non-nil tracer) and returns its
// duration.
func (sp *open) end() time.Duration {
	end := time.Now()
	d := end.Sub(sp.start)
	if sp.t != nil {
		sp.t.add(span{
			ID: sp.id, Parent: sp.parent, Req: sp.req, Name: sp.name,
			Start: int64(sp.start.Sub(sp.t.epoch)), End: int64(end.Sub(sp.t.epoch)),
		})
	}
	return d
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is the per-name aggregate of a trace.
type layerTime struct {
	name  string
	count int
	total time.Duration // sum of span durations
	self  time.Duration // sum of durations minus the time children cover
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of the intervals its children cover (clipped to the
// span itself).
func selfTimes(spans []span) []layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			agg[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// byName returns the spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanMS is the mean duration of the spans in ms; 0 for none.
func meanMS(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var tot time.Duration
	for _, s := range spans {
		tot += s.dur()
	}
	return ms(tot) / float64(len(spans))
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-20s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_ms/op")
	for _, lt := range selfTimes(spans) {
		fmt.Fprintf(w, "%-20s %8d %12.3f %12.3f %10.4f\n",
			lt.name, lt.count, ms(lt.total), ms(lt.self), ms(lt.self)/float64(lt.count))
	}
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
