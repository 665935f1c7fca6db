package repl

import (
	"testing"

	"pdps/internal/server"
	"pdps/internal/wm"
)

// TestApplyCatchupFromCheckpoint is the late-joiner path: the primary
// checkpoints its shadow store every 5 records; an apply-mode follower
// that connects after the run bootstraps from the newest checkpoint,
// folds only the record suffix, and still lands on the primary's store
// hash with an admissible commit tail (CheckTraceFrom over the
// bootstrap base).
func TestApplyCatchupFromCheckpoint(t *testing.T) {
	p := newTestPrimary(t, RunConfig{Np: 3, Seed: 11}, 5)
	if _, err := p.Run(); err != nil {
		t.Fatalf("primary run: %v", err)
	}
	head := p.HeadLSN()
	if head != uint64(growCommits) {
		t.Fatalf("head = %d, want %d", head, growCommits)
	}

	f := NewFollower(FollowerOptions{ID: "joiner", Mode: server.ReplModeApply})
	if err := f.Connect(p.Addr().String()); err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(f.Close)

	rep := mustReport(t, f)
	if rep.Mode != server.ReplModeApply || !rep.TraceChecked {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Records != head {
		t.Fatalf("applied through %d, head %d", rep.Records, head)
	}
	// 18 records / every-5 cadence → newest checkpoint at LSN 15, so
	// the follower folded exactly 3 records itself.
	snap := f.Metrics().Snapshot()
	l := labelsFor("joiner")
	if got := snap.Counter("repl_snapshots_loaded_total", l...); got != 1 {
		t.Fatalf("snapshots loaded = %d", got)
	}
	if got := snap.Counter("repl_records_applied_total", l...); got != 3 {
		t.Fatalf("records applied = %d, want 3 (suffix past checkpoint 15)", got)
	}
	if f.AppliedLSN() != head {
		t.Fatalf("applied LSN %d, head %d", f.AppliedLSN(), head)
	}

	done := 0
	if err := f.View(func(s *wm.Store) {
		done = cellsAtGen(s, 6)
	}); err != nil {
		t.Fatalf("view: %v", err)
	}
	if done != 3 {
		t.Fatalf("%d cells at gen 6, want 3", done)
	}
}

// TestApplyFromGenesis covers the no-checkpoint path (entry 0 is the
// initial working memory): an apply follower subscribed before the run
// starts folds every record from LSN 1 and verifies the whole trace.
func TestApplyFromGenesis(t *testing.T) {
	p := newTestPrimary(t, RunConfig{Np: 2, Seed: 5}, -1) // checkpoints disabled
	f := NewFollower(FollowerOptions{ID: "genesis", Mode: server.ReplModeApply})
	if err := f.Connect(p.Addr().String()); err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(f.Close)
	if _, err := p.Run(); err != nil {
		t.Fatalf("primary run: %v", err)
	}
	rep := mustReport(t, f)
	if rep.Records != uint64(growCommits) || !rep.TraceChecked {
		t.Fatalf("report = %+v", rep)
	}
	snap := f.Metrics().Snapshot()
	l := labelsFor("genesis")
	if got := snap.Counter("repl_records_applied_total", l...); got != int64(growCommits) {
		t.Fatalf("records applied = %d, want %d", got, growCommits)
	}
	if !p.WaitDrained(waitLong) {
		t.Fatal("primary never drained")
	}
}

// TestReplayAndApplyAgree runs one replay and one apply follower side
// by side: the cheap catch-up path must land on the same store hash as
// the full re-execution.
func TestReplayAndApplyAgree(t *testing.T) {
	p := newTestPrimary(t, RunConfig{Np: 3, Seed: 23}, 4)
	replay := NewFollower(FollowerOptions{ID: "replay"})
	apply := NewFollower(FollowerOptions{ID: "apply", Mode: server.ReplModeApply})
	for _, f := range []*Follower{replay, apply} {
		if err := f.Connect(p.Addr().String()); err != nil {
			t.Fatalf("connect: %v", err)
		}
		t.Cleanup(f.Close)
	}
	if _, err := p.Run(); err != nil {
		t.Fatalf("primary run: %v", err)
	}
	r1, r2 := mustReport(t, replay), mustReport(t, apply)
	if r1.StoreHash != r2.StoreHash || r1.StoreHash == "" {
		t.Fatalf("replay hash %q != apply hash %q", r1.StoreHash, r2.StoreHash)
	}
	if r1.Fired != r2.Fired {
		t.Fatalf("replay fired %d, apply echoed %d", r1.Fired, r2.Fired)
	}
}
