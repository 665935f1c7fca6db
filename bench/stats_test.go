package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.5, 50, true},
		{0.9, 90, true},   // 10 samples beyond: supported
		{0.91, 91, false}, // 9 beyond: not supported
		{0.99, 99, false},
	} {
		got, ok := percentile(xs, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of an empty sample reported as supported")
	}
	// The median of a tiny sample is still reported; its tail is not.
	if v, ok := percentile([]float64{3, 7, 9}, 0.5); v != 7 || !ok {
		t.Errorf("median of 3 samples = %v, %v", v, ok)
	}
	if _, ok := percentile([]float64{3, 7, 9}, 0.9); ok {
		t.Error("p90 of 3 samples reported as supported")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median, which the acceptance driver computes spread from.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	q1, q3, ok := quartiles(xs)
	if !ok || !near(q1, 10.375) || !near(q3, 13.25) {
		t.Fatalf("quartiles = %v, %v, %v; want 10.375, 13.25", q1, q3, ok)
	}
	if m := median(xs); !near(m, 11.75) {
		t.Fatalf("median = %v, want 11.75", m)
	}
	if s := spread(xs); !near(s, (13.25-10.375)/11.75) {
		t.Fatalf("spread = %v", s)
	}
	q1, q3, _ = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Fatalf("quartiles(1,2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	q1, q3, _ = quartiles([]float64{5, 1, 9, 4})
	if !near(q1, 1.75) || !near(q3, 8) {
		t.Fatalf("quartiles(5,1,9,4) = %v, %v; want 1.75, 8", q1, q3)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Fatalf("spread of one value = %v, want 0", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Name: "append", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "sync", Start: 20, End: 60, Parent: 1},  // overlaps append: union is 10..60
		{ID: 4, Name: "sync", Start: 90, End: 120, Parent: 1}, // clipped to the parent: 90..100
		{ID: 5, Name: "inner", Start: 25, End: 28, Parent: 3}, // grandchild: not the parent's business
	}
	agg := aggregate(spans)
	if got := agg["step"]; got.Total != 100 || got.Self != 100-50-10 {
		t.Errorf("step total=%v self=%v, want 100 and 40", got.Total, got.Self)
	}
	if got := agg["sync"]; got.Count != 2 || got.Total != 70 || got.Self != 67 {
		t.Errorf("sync count=%d total=%v self=%v, want 2, 70, 67", got.Count, got.Total, got.Self)
	}
	if got := nsPer(agg, "append", 4); got != 5 {
		t.Errorf("nsPer(append, 4) = %v, want 5", got)
	}
	if got := selfNSPer(agg, "missing", 4); got != 0 {
		t.Errorf("selfNSPer of an absent name = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "cycle_p90_ms", bound: 0.10}
	higher := metricDef{name: "firings_per_s", higher: true, bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106, 104, 105}, "ok"},
		{lower, steady, []float64{112, 113, 111, 112}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80}, "ok"},
		{higher, steady, []float64{88, 89, 87, 88}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120}, "ok"},
		{lower, steady, []float64{80, 130, 95, 105}, "unresolved"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMatchedIDs(t *testing.T) {
	got := matchedIDs("finish|12@40|7@9")
	if len(got) != 2 || got[0] != 12 || got[1] != 7 {
		t.Errorf("matchedIDs = %v", got)
	}
	if got := matchedIDs("halt"); len(got) != 0 {
		t.Errorf("matchedIDs of a rule without tuples = %v", got)
	}
}

func TestDurationsMS(t *testing.T) {
	got := durationsMS([]time.Duration{1500 * time.Microsecond})
	if len(got) != 1 || !near(got[0], 1.5) {
		t.Errorf("durationsMS = %v", got)
	}
}
