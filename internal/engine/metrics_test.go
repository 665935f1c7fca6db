package engine

import (
	"sync/atomic"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/obs"
)

// TestSnapshotDuringParallelRun hammers the metrics snapshot, which
// includes the engine_dispatch_depth and engine_submit_depth pipeline
// gauges, from a background goroutine while a contended parallel run
// is in flight. Under -race this pins the fix for the old data race:
// the run counters and pipeline gauges were plain ints read while
// workers ran; they are now atomic obs series.
func TestSnapshotDuringParallelRun(t *testing.T) {
	prog := pipelineProgram(8, 4)
	e, err := NewParallel(prog, lock.SchemeRcRaWa, Options{Np: 8})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			s := e.Metrics().Snapshot()
			if s.Counter("engine_aborts_total") < 0 {
				t.Error("negative abort count")
				return
			}
		}
	}()

	res, err := e.Run()
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * 4; res.Firings != want {
		t.Fatalf("firings = %d, want %d", res.Firings, want)
	}

	// The final snapshot must agree with the run summary.
	s := e.Metrics().Snapshot()
	if got := s.Counter("engine_commits_total"); got != int64(res.Firings) {
		t.Errorf("engine_commits_total = %d, want %d", got, res.Firings)
	}
	if got := s.Counter("engine_aborts_total"); got != int64(res.Aborts) {
		t.Errorf("engine_aborts_total = %d, want %d", got, res.Aborts)
	}
	if got := s.Counter("lock_txns_total"); got < int64(res.Firings) {
		t.Errorf("lock_txns_total = %d, want >= %d", got, res.Firings)
	}
	// Every commit grants at least one Wa or Ra lock in this workload.
	var acquired int64
	for _, mode := range []string{"Rc", "Ra", "Wa"} {
		acquired += s.Counter("lock_acquires_total", obs.L("mode", mode))
	}
	if acquired == 0 {
		t.Error("no lock acquisitions recorded")
	}
	// Per-rule commit counters must sum to the total.
	var ruleCommits int64
	for _, p := range s.Counters {
		if p.Name == "rule_commits_total" {
			ruleCommits += p.Value
		}
	}
	if ruleCommits != int64(res.Firings) {
		t.Errorf("sum of rule_commits_total = %d, want %d", ruleCommits, res.Firings)
	}
}

// TestSharedRegistryKeepsResultsPerEngine pins the split between the
// two tallies: a registry shared via Options.Metrics aggregates
// commits across engines, while each engine's Result (and its
// MaxFirings accounting) must count only its own run.
func TestSharedRegistryKeepsResultsPerEngine(t *testing.T) {
	reg := obs.NewRegistry()
	total := 0
	for i := 0; i < 2; i++ {
		e, err := NewSingle(counterProgram(5), Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Firings != 5 {
			t.Fatalf("run %d: firings = %d, want 5 (leaked from shared registry?)", i, res.Firings)
		}
		total += res.Firings
	}
	if got := reg.Snapshot().Counter("engine_commits_total"); got != int64(total) {
		t.Fatalf("shared engine_commits_total = %d, want %d", got, total)
	}
	// The limit must also be per-engine: a third run with MaxFirings 3
	// must stop at 3 even though the shared series is already at 10.
	e, err := NewSingle(counterProgram(5), Options{Metrics: reg, MaxFirings: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 3 || !res.LimitHit {
		t.Fatalf("limited run: firings = %d limitHit = %v, want 3 true", res.Firings, res.LimitHit)
	}
}

// TestSerialEngineMetrics checks the serial engines feed the same
// series: commits, cycles, match updates and per-class wm traffic.
func TestSerialEngineMetrics(t *testing.T) {
	e, err := NewSingle(counterProgram(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := e.Metrics().Snapshot()
	if got := s.Counter("engine_commits_total"); got != int64(res.Firings) {
		t.Errorf("engine_commits_total = %d, want %d", got, res.Firings)
	}
	if got := s.Counter("engine_cycles_total"); got != int64(res.Cycles) {
		t.Errorf("engine_cycles_total = %d, want %d", got, res.Cycles)
	}
	if got := s.Counter("match_updates_total"); got == 0 {
		t.Error("no match updates recorded")
	}
	if got := s.Counter("wm_writes_total", obs.L("class", "counter")); got == 0 {
		t.Error("no wm writes recorded for class counter")
	}
	if _, ok := s.Histogram("engine_commit_apply_ns"); !ok {
		t.Error("engine_commit_apply_ns missing from snapshot")
	}
}
