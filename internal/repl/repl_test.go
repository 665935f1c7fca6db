package repl

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pdps/internal/obs"
	"pdps/internal/server"
	"pdps/internal/wm"
)

// growProgram is the cellular growth workload: each cell advances one
// generation per firing until the limit, so the run commits
// cells × generations records and quiesces. Different schedules visit
// the cells in different orders, so WME time-tags — and therefore the
// record bytes — depend on the exact choice sequence.
const growProgram = `
(p grow
  (cell ^gen <g> ^alive true)
  (limit ^gen > <g>)
  -->
  (modify 1 ^gen (+ <g> 1)))
(wme limit ^gen 6)
(wme cell ^id 0 ^gen 0 ^alive true)
(wme cell ^id 1 ^gen 0 ^alive true)
(wme cell ^id 2 ^gen 0 ^alive true)
`

const growCommits = 3 * 6

const waitLong = 30 * time.Second

func newTestPrimary(t *testing.T, cfg RunConfig, checkpointEvery int) *Primary {
	t.Helper()
	p, err := NewPrimary(PrimaryOptions{
		Program:         growProgram,
		Config:          cfg,
		CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func labelsFor(id string) []obs.Label {
	return []obs.Label{obs.L("follower", id)}
}

func mustReport(t *testing.T, f *Follower) *Report {
	t.Helper()
	rep, err := f.Wait(waitLong)
	if err != nil {
		t.Fatalf("follower wait: %v", err)
	}
	return rep
}

// TestLoopbackReplayByteIdentical is the tentpole acceptance check:
// two replay followers subscribed before the run starts re-execute it
// from the shipped schedule and land byte-identical — same store hash,
// same metrics snapshot bytes, same run summary — with an admissible
// trace of their own.
func TestLoopbackReplayByteIdentical(t *testing.T) {
	p := newTestPrimary(t, RunConfig{Np: 3, Seed: 42}, 0)

	reg := obs.NewRegistry()
	fs := []*Follower{
		NewFollower(FollowerOptions{ID: "f1", Metrics: reg}),
		NewFollower(FollowerOptions{ID: "f2", Metrics: reg}),
	}
	for _, f := range fs {
		if err := f.Connect(p.Addr().String()); err != nil {
			t.Fatalf("connect: %v", err)
		}
		t.Cleanup(f.Close)
	}

	out, err := p.Run()
	if err != nil {
		t.Fatalf("primary run: %v", err)
	}
	if out.Result.Firings != growCommits {
		t.Fatalf("primary fired %d, want %d", out.Result.Firings, growCommits)
	}
	wantMetrics, err := out.Metrics.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	reps := make([]*Report, len(fs))
	for i, f := range fs {
		reps[i] = mustReport(t, f)
	}
	for i, rep := range reps {
		if rep.Mode != server.ReplModeReplay {
			t.Fatalf("follower %d mode %q", i, rep.Mode)
		}
		if rep.Fired != growCommits || !rep.Quiescent || rep.Halted {
			t.Fatalf("follower %d summary = %+v", i, rep)
		}
		if rep.Records != uint64(growCommits) || rep.Records != p.HeadLSN() {
			t.Fatalf("follower %d applied %d records, head %d", i, rep.Records, p.HeadLSN())
		}
		if !bytes.Equal(rep.MetricsJSON, wantMetrics) {
			t.Fatalf("follower %d metrics differ from primary:\n%s\nvs\n%s",
				i, rep.MetricsJSON, wantMetrics)
		}
		if !rep.TraceChecked {
			t.Fatalf("follower %d trace unchecked", i)
		}
	}
	if reps[0].StoreHash != reps[1].StoreHash || reps[0].StoreHash == "" {
		t.Fatalf("store hashes differ: %q vs %q", reps[0].StoreHash, reps[1].StoreHash)
	}

	if !p.WaitDrained(waitLong) {
		t.Fatal("primary never drained")
	}
	snap := p.Metrics().Snapshot()
	if got := snap.Counter("repl_records_shipped_total"); got < int64(2*growCommits) {
		t.Fatalf("repl_records_shipped_total = %d, want >= %d", got, 2*growCommits)
	}
	if got := snap.Counter("repl_choices_shipped_total"); got <= 0 {
		t.Fatalf("repl_choices_shipped_total = %d, want > 0", got)
	}
	if lag, _ := snap.Gauge("repl_lag_records"); lag != 0 {
		t.Fatalf("drained primary lag = %d", lag)
	}
	fsnap := reg.Snapshot()
	for _, id := range []string{"f1", "f2"} {
		l := obs.L("follower", id)
		if got := fsnap.Counter("repl_records_applied_total", l); got != int64(growCommits) {
			t.Fatalf("%s applied counter = %d", id, got)
		}
		if got := fsnap.Counter("repl_divergence_total", l); got != 0 {
			t.Fatalf("%s divergence counter = %d", id, got)
		}
	}

	// Replica state is readable: every cell reached the generation
	// limit on both replicas.
	for i, f := range fs {
		done := 0
		if err := f.View(func(s *wm.Store) {
			done = cellsAtGen(s, 6)
		}); err != nil {
			t.Fatalf("follower %d view: %v", i, err)
		}
		if done != 3 {
			t.Fatalf("follower %d: %d cells at gen 6, want 3", i, done)
		}
	}
}

// TestLateJoinReplay exercises the retained log: a follower that
// connects only after the primary's run has completely finished still
// receives the whole schedule and replays it bit for bit.
func TestLateJoinReplay(t *testing.T) {
	p := newTestPrimary(t, RunConfig{Np: 2, Seed: 7}, 0)
	out, err := p.Run()
	if err != nil {
		t.Fatalf("primary run: %v", err)
	}

	f := NewFollower(FollowerOptions{ID: "late"})
	if err := f.Connect(p.Addr().String()); err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(f.Close)

	rep := mustReport(t, f)
	if rep.Fired != out.Result.Firings || rep.Records != p.HeadLSN() {
		t.Fatalf("late join replayed %d firings / %d records, primary %d / %d",
			rep.Fired, rep.Records, out.Result.Firings, p.HeadLSN())
	}
	wantMetrics, _ := out.Metrics.MarshalIndent()
	if !bytes.Equal(rep.MetricsJSON, wantMetrics) {
		t.Fatal("late-join metrics snapshot differs from primary")
	}
}

// TestSeedsDisagreeAcrossRunsButReplicasAgree pins down what the
// determinism claim does and does not promise: two primaries with
// different seeds produce different schedules (store hashes may or may
// not match — the run is confluent — but metrics typically differ),
// while a replica always matches ITS primary exactly.
func TestDifferentSeedsStillReplicate(t *testing.T) {
	for _, seed := range []int64{1, 99} {
		p := newTestPrimary(t, RunConfig{Np: 3, Seed: seed}, 0)
		f := NewFollower(FollowerOptions{})
		if err := f.Connect(p.Addr().String()); err != nil {
			t.Fatalf("seed %d connect: %v", seed, err)
		}
		out, err := p.Run()
		if err != nil {
			t.Fatalf("seed %d run: %v", seed, err)
		}
		rep := mustReport(t, f)
		wantMetrics, _ := out.Metrics.MarshalIndent()
		if !bytes.Equal(rep.MetricsJSON, wantMetrics) {
			t.Fatalf("seed %d: replica metrics differ from primary", seed)
		}
		f.Close()
		p.Close()
	}
}

// TestPrimaryRejectsSecondRun pins the one-shot Run contract.
func TestPrimaryRejectsSecondRun(t *testing.T) {
	p := newTestPrimary(t, RunConfig{Seed: 3}, 0)
	if _, err := p.Run(); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := p.Run(); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

// TestBadConfigRejected pins config validation at both ends.
func TestBadConfigRejected(t *testing.T) {
	_, err := NewPrimary(PrimaryOptions{Program: growProgram, Config: RunConfig{Scheme: "3pl"}})
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// Wait-die was removed; a config naming it is refused like any
	// unknown policy.
	_, err = NewPrimary(PrimaryOptions{Program: growProgram, Config: RunConfig{Deadlock: "wait-die"}})
	if err == nil {
		t.Fatal("deadlock policy wait-die accepted")
	}
	_, err = NewPrimary(PrimaryOptions{Program: "(p", Config: RunConfig{}})
	if err == nil {
		t.Fatal("unparsable program accepted")
	}
}

// TestHelloConfigUnknownFieldsRefused pins the follower's strict hello
// decoding: a config carrying a field this build does not know (a
// setting from another build, or garbage) must fail the hello instead
// of being silently dropped and replayed without it.
func TestHelloConfigUnknownFieldsRefused(t *testing.T) {
	for _, cfg := range []string{`{"elide":true}`, `{"match_shards":2}`, `{"matcher":"treat"}`, `{"bogus":1}`, `{"np":2} {"np":3}`} {
		f := NewFollower(FollowerOptions{})
		err := f.adopt(&server.Response{Program: growProgram, ReplConfig: []byte(cfg)})
		if err == nil || !strings.Contains(err.Error(), "repl: hello config") {
			t.Fatalf("config %s: err = %v, want a repl: hello config error", cfg, err)
		}
	}
	f := NewFollower(FollowerOptions{})
	if err := f.adopt(&server.Response{Program: growProgram, ReplConfig: []byte(`{"scheme":"2pl","np":2}`)}); err != nil {
		t.Fatalf("known fields refused: %v", err)
	}
}

// cellsAtGen counts the cell tuples whose gen attribute equals gen.
func cellsAtGen(s *wm.Store, gen int64) int {
	n := 0
	for _, w := range s.ByClass("cell") {
		if w.HasAttr("gen") && w.Attr("gen").Equal(wm.Int(gen)) {
			n++
		}
	}
	return n
}
