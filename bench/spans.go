package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Start and End
// are nanoseconds since the tracer was created; Parent is the ID of
// the span that caused it (0 for a root); spans of one cycle share
// Cycle.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cycle  int    `json:"cycle"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: begin and end return immediately, so the measurement
// window pays one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, cycle int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, Parent: parent, Cycle: cycle})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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

// spanStats aggregates the spans of one name.
type spanStats struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // Total minus the part child spans cover
	durs  []time.Duration
}

// aggregate groups spans by name and computes each name's total and
// self time. A span's self time is its duration minus the union of
// the intervals its direct children cover inside it, so overlapping
// (concurrent) children are not subtracted twice.
func aggregate(spans []span) map[string]*spanStats {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
		st.durs = append(st.durs, d)
	}
	return out
}

// covered returns how much of the parent's interval its children
// cover: the length of the union of the children's intervals clipped
// to the parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = parent.Start
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(total)
}

// nsPer returns the named spans' total time per unit of work.
func nsPer(agg map[string]*spanStats, name string, per float64) float64 {
	st := agg[name]
	if st == nil {
		return 0
	}
	return ratio(float64(st.Total), per)
}

// selfNSPer is nsPer over self time.
func selfNSPer(agg map[string]*spanStats, name string, per float64) float64 {
	st := agg[name]
	if st == nil {
		return 0
	}
	return ratio(float64(st.Self), per)
}

// spanPercentile returns the q-quantile of the named spans' durations
// in the given unit, or 0 when the sample cannot support it.
func spanPercentile(agg map[string]*spanStats, name string, q float64, unit time.Duration) float64 {
	st := agg[name]
	if st == nil {
		return 0
	}
	xs := make([]float64, len(st.durs))
	for i, d := range st.durs {
		xs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(xs)
	v, ok := percentile(xs, q)
	if !ok {
		return 0
	}
	return v
}
