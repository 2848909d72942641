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

// tracer keeps spans in memory; writeSpans puts them out when the run ends.
// A nil *tracer records nothing, which is how the untraced run executes the
// same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call across a layer boundary. Spans of one unit of work
// (a pass, a request, a cycle) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the process's heap allocation during the span, for spans
	// that asked for it (-1 otherwise); meaningful where one call runs
	// alone.
	Alloc int64 `json:"alloc_bytes"`

	alloc0 int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, req int64) int {
	return t.open(name, parent, req, false)
}

// beginAlloc opens a span that also measures heap allocation.
func (t *tracer) beginAlloc(name string, parent int, req int64) int {
	return t.open(name, parent, req, true)
}

func (t *tracer) open(name string, parent int, req int64, alloc bool) int {
	if t == nil {
		return -1
	}
	s := span{Parent: parent, Req: req, Name: name, Alloc: -1, alloc0: -1}
	if alloc {
		s.alloc0 = allocBytes()
	}
	s.Start = int64(time.Since(t.t0))
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	a0 := s.alloc0
	t.mu.Unlock()
	if a0 >= 0 {
		a := allocBytes() - a0
		t.mu.Lock()
		t.spans[id].Alloc = a
		t.mu.Unlock()
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
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

// spanIndex answers self-time and per-name questions over a span set.
type spanIndex struct {
	spans    []span
	children map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int][]int{}}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

func (s span) dur() int64 { return s.End - s.Start }

// self is a span's duration minus the part of it its children cover.
// Children may overlap each other (concurrent sink writes), so the covered
// part is the union of their intervals, clipped to the span.
func (ix *spanIndex) self(id int) int64 {
	p := ix.spans[id]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range ix.children[id] {
		cs := ix.spans[c]
		a, b := max(cs.Start, p.Start), min(cs.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return p.dur() - covered
}

// named returns the spans called name, in start order.
func (ix *spanIndex) named(name string) []span {
	var out []span
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// each returns f of every span called name.
func (ix *spanIndex) each(name string, f func(s span) float64) []float64 {
	var out []float64
	for _, s := range ix.named(name) {
		out = append(out, f(s))
	}
	return out
}

// perReq sums f over the spans called name within each unit of work and
// returns one total per unit that has such a span.
func (ix *spanIndex) perReq(name string, f func(s span) float64) []float64 {
	by := map[int64]float64{}
	var order []int64
	for _, s := range ix.named(name) {
		if _, ok := by[s.Req]; !ok {
			order = append(order, s.Req)
		}
		by[s.Req] += f(s)
	}
	out := make([]float64, 0, len(order))
	for _, r := range order {
		out = append(out, by[r])
	}
	return out
}

// selfMs is the per-unit median self time of the spans called name.
func (ix *spanIndex) selfMs(name string) (float64, int) {
	xs := ix.perReq(name, func(s span) float64 { return ms(ix.self(s.ID)) })
	return median(xs), len(xs)
}

// durMs is the per-unit median duration of the spans called name.
func (ix *spanIndex) durMs(name string) (float64, int) {
	xs := ix.perReq(name, func(s span) float64 { return ms(s.dur()) })
	return median(xs), len(xs)
}

// allocMB is the per-unit median allocation of the spans called name.
func (ix *spanIndex) allocMB(name string) (float64, int) {
	xs := ix.perReq(name, func(s span) float64 { return float64(s.Alloc) / mib })
	return median(xs), len(xs)
}
