package engine

import (
	"testing"

	"pdps/internal/lock"
	"pdps/internal/obs"
)

// TestRefreshTakesDeltaPath pins the end-to-end delta pipeline: for
// the incremental matchers the committer's refresh must drain the
// conflict set's change journal (the O(|delta|) branch), not fall back
// to snapshot reconciliation on every commit. One snapshot refresh is
// expected — the initial full-membership drain at startup. The naive
// matcher rebuilds its set per call, so every refresh reconciles a
// snapshot.
func TestRefreshTakesDeltaPath(t *testing.T) {
	for _, matcher := range []string{"rete", "treat", "naive"} {
		reg := obs.NewRegistry()
		p := pipelineProgram(8, 4)
		e, err := NewParallel(p, lock.SchemeRcRaWa, Options{
			Np: 4, Matcher: matcher, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", matcher, err)
		}
		if res.Firings != 32 {
			t.Fatalf("%s: firings = %d, want 32", matcher, res.Firings)
		}
		snap := reg.Counter("engine_refresh_snapshot_total").Value()
		delta := reg.Counter("engine_refresh_delta_total").Value()
		if matcher == "naive" {
			if snap == 0 || delta != 0 {
				t.Errorf("naive: snapshots=%d deltas=%d, want snapshots only", snap, delta)
			}
			continue
		}
		if snap > 1 {
			t.Errorf("%s: %d snapshot refreshes (want at most the initial one); deltas=%d",
				matcher, snap, delta)
		}
		if delta == 0 {
			t.Errorf("%s: journal-drain branch never taken (snapshots=%d)", matcher, snap)
		}
	}
}

// TestNaiveRefreshOncePerCommit pins the committer to one conflict-set
// rebuild per commit under the naive matcher, which rebuilds the whole
// set on every call: the initial drain plus one per commit, however
// often the committer loops or checks a key's liveness in between.
func TestNaiveRefreshOncePerCommit(t *testing.T) {
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		reg := obs.NewRegistry()
		e, err := NewParallel(pipelineProgram(8, 4), scheme, Options{
			Np: 4, Matcher: "naive", Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Firings != 32 {
			t.Fatalf("%v: firings = %d, want 32", scheme, res.Firings)
		}
		if snap := reg.Counter("engine_refresh_snapshot_total").Value(); snap > 33 {
			t.Errorf("%v: %d snapshot refreshes for 32 commits, want at most 33", scheme, snap)
		}
	}
}
