package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (never inside the program). Times are offsets from
// the recorder's start. Spans of one request or batch share Req.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Req    uint64  `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// recorder keeps spans in memory until the run ends. A nil recorder,
// or one switched off, records nothing and costs one atomic load.
type recorder struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// active reports whether spans are being recorded right now.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// open is a started span; the zero value is a no-op.
type open struct {
	r      *recorder
	id     uint64
	parent uint64
	req    uint64
	name   string
	start  time.Time
}

// start opens a span. parent and req may be zero.
func (r *recorder) start(name string, parent, req uint64) open {
	if !r.active() {
		return open{}
	}
	return open{r: r, id: r.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// newReq allocates a request id.
func (r *recorder) newReq() uint64 {
	if !r.active() {
		return 0
	}
	return r.ids.Add(1)
}

// end closes the span.
func (o open) end() {
	if o.r == nil {
		return
	}
	end := time.Now()
	us := func(t time.Time) float64 { return float64(t.Sub(o.r.t0)) / float64(time.Microsecond) }
	s := span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: us(o.start), End: us(end)}
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, s)
	o.r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds:
// each span's duration minus the part of it covered by its children.
func selfTimes(spans []span) map[string]float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := coveredUS(s, children[s.ID])
		out[s.Name] += (s.End - s.Start - covered) / 1e6
	}
	return out
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredUS(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// write stores every span, one JSON object a line, and returns the
// per-name self times.
func (r *recorder) write(path string) (map[string]float64, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("close %s: %w", path, err)
	}
	return selfTimes(spans), nil
}
