package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. All spans of one
// operation share Op; Parent is 0 for a call made directly by the
// operation, otherwise the ID of the enclosing span.
type span struct {
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Extra marks a call the untraced operation does not make on its own
	// path (a component measured separately, such as mcode.VertexWeights,
	// which FindClustersContext also runs internally). Extra spans are
	// reported but left out of the layer sums behind other_ms.
	Extra bool `json:"extra,omitempty"`
}

// layer is the module a span's call belongs to: the part of its name
// before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends.
// Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// op opens a new operation and returns the handle its top-level calls
// are recorded under.
func (t *tracer) op() spanRef {
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return spanRef{t: t, op: op, id: 0}
}

// spanRef addresses a span for its children.
type spanRef struct {
	t  *tracer
	op int
	id int
}

// record appends a finished span under parent and returns its handle.
func (t *tracer) record(parent spanRef, name string, start, end time.Duration, extra bool) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: parent.op, ID: id, Parent: parent.id, Name: name, Start: start, End: end, Extra: extra})
	return spanRef{t: t, op: parent.op, id: id}
}

// timed runs fn inside a span named name under p.
func (p spanRef) timed(name string, fn func()) { p.call(name, false, fn) }

// extra is timed for a call the untraced operation does not make itself.
func (p spanRef) extra(name string, fn func()) { p.call(name, true, fn) }

func (p spanRef) call(name string, extra bool, fn func()) {
	start := p.t.now()
	fn()
	p.t.record(p, name, start, p.t.now(), extra)
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap one another (concurrent
// calls) or stick out of the parent; only the union of their intervals,
// clipped to the parent, is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	type key struct{ op, id int }
	kids := map[key][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Op, s.Parent}
			kids[k] = append(kids[k], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[key{s.Op, s.ID}], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// selfLayers are the modules whose self time is reported as
// <layer>.self_ms and summed against the untraced latency to give
// other_ms.
var selfLayers = []string{"api", "server", "expr", "graph", "sampling", "transport", "mcode", "analysis"}

// opLayerSelf sums, per operation, the self time of every non-extra span
// by layer.
func opLayerSelf(spans []span) map[int]map[string]time.Duration {
	self := selfTimes(spans)
	out := map[int]map[string]time.Duration{}
	for _, s := range spans {
		if s.Extra {
			continue
		}
		m := out[s.Op]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Op] = m
		}
		m[s.layer()] += self[s.ID]
	}
	return out
}

// spanDurations collects the durations (in ms) of every span named name,
// one value per operation (summed when an operation makes the call twice).
func spanDurations(spans []span, name string) []float64 {
	per := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			per[s.Op] += s.dur()
		}
	}
	out := make([]float64, 0, len(per))
	for _, d := range per {
		out = append(out, ms(d.Seconds()))
	}
	return out
}
