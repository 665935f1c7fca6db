// Package obs is the engine observability layer: a low-overhead
// metrics registry of atomic counters, peak-tracking gauges and
// lock-free histograms with fixed log-scale buckets, plus labeled
// series (per-rule, per-lock-mode-pair, per-class). The four hot
// layers of the system — the lock manager, the engine committer, the
// matchers and the working-memory store — record into it on every
// operation, so the quantities Section 5 of the paper argues about
// (degree of conflict, abort and retry counts, lock-wait time,
// per-rule firing latency) are observable on a live run instead of
// only being inferable from a run's summary.
//
// Design constraints, in order:
//
//  1. Hot-path writes are wait-free: one atomic add for a counter, a
//     handful for a histogram. Registry lookups (mutex + map) happen
//     only at wiring time; the layers cache their handles.
//  2. Snapshots are deterministic: series are ordered by (name,
//     sorted labels) and all arithmetic is integral, so two runs that
//     perform the same work in any interleaving produce byte-identical
//     JSON. Combined with the virtual clock of internal/sched this
//     makes whole metric snapshots replayable bit-for-bit (see the
//     determinism test in internal/detsched).
//  3. No dependencies beyond the standard library, and no dependency
//     on any other pdps package — every layer may import obs.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension of a metric series, e.g.
// {rule=advance} or {modes=Rc/Wa}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotone atomic event counter. The zero value is ready
// to use. Counters wrap around on int64 overflow (two's complement),
// which at one increment per nanosecond takes ~292 years.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d should be non-negative; the counter does not check).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic level indicator that also remembers its peak.
type Gauge struct {
	cur atomic.Int64
	max atomic.Int64
}

// Set records the current level and raises the peak if exceeded.
func (g *Gauge) Set(v int64) {
	g.cur.Store(v)
	g.raise(v)
}

// Add moves the level by d and returns the new value.
func (g *Gauge) Add(d int64) int64 {
	v := g.cur.Add(d)
	g.raise(v)
	return v
}

func (g *Gauge) raise(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.cur.Load() }

// Peak returns the highest level ever recorded.
func (g *Gauge) Peak() int64 { return g.max.Load() }

// numBuckets is the histogram bucket count: bucket 0 holds values
// <= 0 and bucket i (1..63) holds values in [2^(i-1), 2^i).
const numBuckets = 64

// Histogram is a lock-free histogram over int64 values with fixed
// log-scale (power-of-two) buckets: bucket 0 counts samples <= 0 and
// bucket i counts samples in [2^(i-1), 2^i). Every Observe is a small,
// bounded number of atomic operations — no mutex, so concurrent
// recording never serialises the hot paths it measures — and all
// state is integral, so the final values are independent of the
// interleaving of concurrent observers (adds commute; min/max are
// order-free CAS races to the same fixed point).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64 // valid when count > 0
	buckets [numBuckets]atomic.Int64
}

// bucketIndex maps a sample to its bucket: 0 for v <= 0, else
// floor(log2(v))+1 clamped to the last bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v)) // floor(log2(v)) + 1
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// BucketBounds returns the half-open value range [lo, hi) of bucket i;
// bucket 0 is (-inf, 1) and the last bucket is unbounded above
// (hi = math.MaxInt64).
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return -1 << 63, 1
	}
	lo = 1 << uint(i-1)
	if i >= numBuckets-1 {
		return lo, 1<<63 - 1
	}
	return lo, 1 << uint(i)
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First observer seeds min/max; concurrent observers spin on
		// the CAS below against the zero seed, which is safe because
		// the loops only ever tighten the bounds.
		h.min.CompareAndSwap(0, v)
		h.max.CompareAndSwap(0, v)
	}
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(int64(d))
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Kind discriminates metric types in a snapshot.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotone event count.
	KindCounter Kind = iota
	// KindGauge is a level with a remembered peak.
	KindGauge
	// KindHistogram is a log-scale distribution of int64 samples.
	KindHistogram
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// metric is one registered series.
type metric struct {
	name   string
	labels []Label // sorted by key
	unit   string
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry is a set of named metric series. Lookups are get-or-create
// and idempotent; the returned handles are the live metrics, safe for
// concurrent use and meant to be cached by the instrumented layer (a
// registry lookup takes a mutex, a handle operation does not).
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// seriesKey canonicalises (name, labels): labels sorted by key.
func seriesKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String(), ls
}

// lookup returns the series, creating it if absent. It panics if the
// name+labels are already registered with a different kind — that is a
// programming error in the instrumentation, not a runtime condition.
func (r *Registry) lookup(name string, unit string, kind Kind, labels []Label) *metric {
	key, ls := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", key, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: ls, unit: unit, kind: kind}
	switch kind {
	case KindCounter:
		m.counter = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		m.hist = &Histogram{}
	}
	r.byKey[key] = m
	return m
}

// Counter returns the counter series with the given name and labels,
// creating it if absent.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, "", KindCounter, labels).counter
}

// Gauge returns the gauge series with the given name and labels,
// creating it if absent.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, "", KindGauge, labels).gauge
}

// Histogram returns the histogram series with the given name, unit
// ("ns" for durations, a domain word like "changes" otherwise) and
// labels, creating it if absent.
func (r *Registry) Histogram(name, unit string, labels ...Label) *Histogram {
	return r.lookup(name, unit, KindHistogram, labels).hist
}

// Bucket is one non-empty histogram bucket of a snapshot: N samples
// with Lo <= sample < Hi.
type Bucket struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// CounterPoint is a counter's snapshot value.
type CounterPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugePoint is a gauge's snapshot value and peak.
type GaugePoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
	Peak   int64             `json:"peak"`
}

// HistogramPoint is a histogram's snapshot: count, sum, extrema and
// the non-empty log-scale buckets.
type HistogramPoint struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Unit    string            `json:"unit,omitempty"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Mean returns the average sample, 0 when empty.
func (p HistogramPoint) Mean() int64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / p.Count
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1)
// from the bucket boundaries, clamped to the observed maximum. All
// arithmetic is integral, keeping snapshots deterministic.
func (p HistogramPoint) Quantile(q float64) int64 {
	if p.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(p.Count))
	if float64(target) < q*float64(p.Count) {
		target++ // ceil
	}
	var seen int64
	for _, b := range p.Buckets {
		seen += b.N
		if seen >= target {
			upper := b.Hi - 1
			if upper > p.Max {
				upper = p.Max
			}
			return upper
		}
	}
	return p.Max
}

// Snapshot is a structured, JSON-marshalable view of every series in
// a registry at one moment. Series appear sorted by (name, labels), so
// two snapshots of runs that performed the same work are byte-identical
// when marshaled — the property the deterministic-replay test pins.
//
// A snapshot taken while the engine runs is per-series atomic but not
// a consistent cut across series (e.g. a commit may be counted in
// engine_commits_total and not yet in its per-rule series).
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot captures every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	keys := make([]string, 0, len(r.byKey))
	ms := make(map[string]*metric, len(r.byKey))
	for k, m := range r.byKey {
		keys = append(keys, k)
		ms[k] = m
	}
	r.mu.Unlock()
	sort.Strings(keys)

	var s Snapshot
	for _, k := range keys {
		m := ms[k]
		switch m.kind {
		case KindCounter:
			s.Counters = append(s.Counters, CounterPoint{
				Name: m.name, Labels: labelMap(m.labels), Value: m.counter.Value()})
		case KindGauge:
			s.Gauges = append(s.Gauges, GaugePoint{
				Name: m.name, Labels: labelMap(m.labels),
				Value: m.gauge.Value(), Peak: m.gauge.Peak()})
		case KindHistogram:
			h := m.hist
			p := HistogramPoint{
				Name: m.name, Labels: labelMap(m.labels), Unit: m.unit,
				Count: h.count.Load(), Sum: h.sum.Load()}
			if p.Count > 0 {
				p.Min, p.Max = h.min.Load(), h.max.Load()
			}
			for i := range h.buckets {
				if n := h.buckets[i].Load(); n > 0 {
					lo, hi := BucketBounds(i)
					p.Buckets = append(p.Buckets, Bucket{Lo: lo, Hi: hi, N: n})
				}
			}
			s.Histograms = append(s.Histograms, p)
		}
	}
	return s
}

// labelsMatch reports whether got carries exactly the queried labels.
func labelsMatch(got map[string]string, want []Label) bool {
	if len(got) != len(want) {
		return false
	}
	for _, l := range want {
		if got[l.Key] != l.Value {
			return false
		}
	}
	return true
}

// Counter returns the snapshot value of the named counter series, or 0
// if absent.
func (s Snapshot) Counter(name string, labels ...Label) int64 {
	for _, p := range s.Counters {
		if p.Name == name && labelsMatch(p.Labels, labels) {
			return p.Value
		}
	}
	return 0
}

// Gauge returns the snapshot value and peak of the named gauge series.
func (s Snapshot) Gauge(name string, labels ...Label) (value, peak int64) {
	for _, p := range s.Gauges {
		if p.Name == name && labelsMatch(p.Labels, labels) {
			return p.Value, p.Peak
		}
	}
	return 0, 0
}

// Histogram returns the snapshot of the named histogram series.
func (s Snapshot) Histogram(name string, labels ...Label) (HistogramPoint, bool) {
	for _, p := range s.Histograms {
		if p.Name == name && labelsMatch(p.Labels, labels) {
			return p, true
		}
	}
	return HistogramPoint{}, false
}

// MarshalIndent renders the snapshot as stable, human-diffable JSON —
// the format of the golden metrics file, the commands' JSON metrics
// output and the server's metrics replies.
func (s Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// labelString renders a point's labels as {k=v,...} with sorted keys.
func labelString(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
	}
	b.WriteByte('}')
	return b.String()
}

// fmtDur renders a nanosecond quantity as a duration.
func fmtDur(ns int64) string { return time.Duration(ns).String() }

// WriteText renders the snapshot as an aligned, human-readable dump:
// counters and gauges one per line, histograms as count/mean/min/max
// and p99 (durations rendered in time units when the unit is "ns").
func (s Snapshot) WriteText(w io.Writer) {
	for _, p := range s.Counters {
		fmt.Fprintf(w, "%-48s %12d\n", p.Name+labelString(p.Labels), p.Value)
	}
	for _, p := range s.Gauges {
		fmt.Fprintf(w, "%-48s %12d (peak %d)\n", p.Name+labelString(p.Labels), p.Value, p.Peak)
	}
	for _, p := range s.Histograms {
		render := func(v int64) string {
			if p.Unit == "ns" {
				return fmtDur(v)
			}
			return fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(w, "%-48s n=%d mean=%s min=%s max=%s p99<=%s\n",
			p.Name+labelString(p.Labels), p.Count,
			render(p.Mean()), render(p.Min), render(p.Max), render(p.Quantile(0.99)))
	}
}

// Text returns WriteText's output as a string.
func (s Snapshot) Text() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}

// Expvar adapts the registry to the standard expvar interface: publish
// it with expvar.Publish and the whole registry appears, as the JSON
// form of its Snapshot, in the /debug/vars endpoint every net/http
// server exposes once expvar is imported.
func (r *Registry) Expvar() expvar.Func {
	return expvar.Func(func() any { return r.Snapshot() })
}
