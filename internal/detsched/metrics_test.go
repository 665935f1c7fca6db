package detsched

import (
	"bytes"
	"testing"
	"time"

	"pdps/internal/lock"
	"pdps/internal/sched"
	"pdps/internal/workload"
)

// TestMetricsDeterministic is the acceptance test for metric
// determinism under the scheduler: two identical seeded runs of a
// conflict-heavy program must produce byte-identical metric snapshots
// — counters, gauges with peaks, and every histogram including the
// duration ones, which only holds because all timing flows through the
// controller's virtual clock and the obs registry does only integral,
// order-independent arithmetic.
func TestMetricsDeterministic(t *testing.T) {
	prog := workload.SharedCounter(4, 2)
	delays := map[string]time.Duration{}
	for _, r := range prog.Rules {
		delays[r.Name] = 2 * time.Millisecond
	}
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		// Replays must be byte-identical: index bucketing and journal
		// draining may not leak map-iteration order into anything
		// observable.
		t.Run(scheme.String(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				cfg := Config{Scheme: scheme, Np: 4,
					RuleDelay: delays, CondDelay: delays}
				a := Run(prog, cfg, sched.NewRandom(seed))
				b := Run(prog, cfg, sched.NewRandom(seed))
				if err := Check(prog, a); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				ja, err := a.Metrics.MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				jb, err := b.Metrics.MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ja, jb) {
					t.Fatalf("seed %d: metric snapshots differ:\n%s\n--- vs ---\n%s", seed, ja, jb)
				}
				// The snapshot must be non-trivial: commits happened,
				// locks were taken, and simulated time was measured.
				if n := a.Metrics.Counter("engine_commits_total"); n != int64(a.Result.Firings) {
					t.Fatalf("seed %d: engine_commits_total = %d, want %d", seed, n, a.Result.Firings)
				}
				if a.Metrics.Counter("lock_txns_total") == 0 {
					t.Fatalf("seed %d: no lock transactions recorded", seed)
				}
				h, ok := a.Metrics.Histogram("engine_commit_latency_ns")
				if !ok || h.Count == 0 {
					t.Fatalf("seed %d: commit latency histogram empty", seed)
				}
				if h.Sum == 0 {
					t.Fatalf("seed %d: commit latency all zero despite simulated delays", seed)
				}
			}
		})
	}
}

// TestMetricsConflictCounters drives a scheme pair through the same
// contended program and checks the conflict accounting matches each
// scheme's semantics: under 2PL conflicts appear as blocked requests,
// while under RcRaWa the Rc/Wa series is fed by commit-time victim
// kills (Table 4.1 grants the lock; rule (ii) settles the conflict).
func TestMetricsConflictCounters(t *testing.T) {
	prog := workload.SharedCounter(4, 2)
	sawConflict := false
	for seed := int64(0); seed < 10 && !sawConflict; seed++ {
		out := Run(prog, Config{Scheme: lock.SchemeRcRaWa, Np: 4}, sched.NewRandom(seed))
		if err := Check(prog, out); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		victims := out.Metrics.Counter("lock_rc_victims_total")
		if victims > 0 {
			sawConflict = true
			if aborts := out.Metrics.Counter("engine_aborts_total"); aborts == 0 {
				t.Fatalf("seed %d: %d rc victims but no engine aborts", seed, victims)
			}
		}
	}
	if !sawConflict {
		t.Skip("no seed produced an Rc victim on this workload")
	}
}
