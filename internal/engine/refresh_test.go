package engine

import (
	"testing"

	"pdps/internal/lock"
	"pdps/internal/obs"
)

// TestRefreshTakesDeltaPath pins the end-to-end delta pipeline: the
// committer's refresh must drain the conflict set's change journal
// (the O(|delta|) branch), not reconcile a full snapshot on every
// commit. At most one snapshot refresh is expected — the initial
// full-membership drain at startup.
func TestRefreshTakesDeltaPath(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewParallel(pipelineProgram(8, 4), lock.SchemeRcRaWa, Options{Np: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 32 {
		t.Fatalf("firings = %d, want 32", res.Firings)
	}
	snap := reg.Counter("engine_refresh_snapshot_total").Value()
	delta := reg.Counter("engine_refresh_delta_total").Value()
	if snap > 1 {
		t.Errorf("%d snapshot refreshes (want at most the initial one); deltas=%d", snap, delta)
	}
	if delta == 0 {
		t.Errorf("journal-drain branch never taken (snapshots=%d)", snap)
	}
}
