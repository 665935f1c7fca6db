package engine

import (
	"bytes"
	"fmt"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/storage"
	"pdps/internal/storage/storagetest"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// storageBuilders enumerates engine constructors for the durability
// tests.
func storageBuilders() map[string]func(Program, Options) (interface {
	Run() (Result, error)
	Store() *wm.Store
}, error) {
	type eng = interface {
		Run() (Result, error)
		Store() *wm.Store
	}
	return map[string]func(Program, Options) (eng, error){
		"single": func(p Program, o Options) (eng, error) {
			return NewSingle(p, o)
		},
		"parallel-2pl": func(p Program, o Options) (eng, error) {
			return NewParallel(p, lock.Scheme2PL, o)
		},
		"parallel-rcrawa": func(p Program, o Options) (eng, error) {
			return NewParallel(p, lock.SchemeRcRaWa, o)
		},
		"static": func(p Program, o Options) (eng, error) {
			return NewStatic(p, o)
		},
	}
}

func storeSnapshot(t *testing.T, s *wm.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStorageRecoveryAllEngines runs each engine over each backend,
// then recovers and requires (a) one durable record per firing, (b) a
// recovered store equal to the engine's final working memory, and (c)
// a recovered commit trace the consistency checker accepts — the
// paper's knowledge-persistence motivation plus the Definition 3.2
// admissibility bar applied to recovery.
func TestStorageRecoveryAllEngines(t *testing.T) {
	for name, build := range storageBuilders() {
		for _, backendName := range []string{"mem", "file"} {
			t.Run(name+"/"+backendName, func(t *testing.T) {
				prog := tallyProgram(4, 3)

				var backend storage.Backend
				var reopen func() storage.Backend
				switch backendName {
				case "mem":
					m := storage.NewMem()
					backend = m
					reopen = func() storage.Backend { return m }
				case "file":
					dir := t.TempDir()
					f, err := storage.OpenFile(dir, storage.FileOptions{})
					if err != nil {
						t.Fatal(err)
					}
					backend = f
					reopen = func() storage.Backend {
						if err := f.Close(); err != nil {
							t.Fatal(err)
						}
						g, err := storage.OpenFile(dir, storage.FileOptions{})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { g.Close() })
						return g
					}
				}

				// Seed the backend with the initial working memory as a
				// non-firing record, as a resuming loader would.
				base := wm.NewStore()
				var init wm.Delta
				for _, iw := range prog.WMEs {
					init.Adds = append(init.Adds, base.Insert(iw.Class, iw.Attrs))
				}
				if _, err := backend.Append(&storage.Record{Delta: &init}); err != nil {
					t.Fatal(err)
				}
				if err := backend.Sync(); err != nil {
					t.Fatal(err)
				}

				resumed := prog
				resumed.WMEs = nil // Restore already carries the initial WM
				eng, err := build(resumed, Options{Np: 4, Storage: backend, Restore: base})
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Firings == 0 {
					t.Fatal("program fired nothing")
				}

				rec, err := reopen().Recover()
				if err != nil {
					t.Fatal(err)
				}
				if got := len(rec.Records); got != res.Firings+1 {
					t.Fatalf("recovered %d records, want %d firings + 1 seed", got, res.Firings)
				}
				if rec.LSN != storage.LSN(res.Firings+1) {
					t.Fatalf("recovered LSN = %d, want %d", rec.LSN, res.Firings+1)
				}
				if !bytes.Equal(storeSnapshot(t, rec.Store), storeSnapshot(t, eng.Store())) {
					t.Fatal("recovered store is not byte-identical to the final working memory")
				}

				// The recovered records reconstruct the commit trace; it
				// must be admissible per Definition 3.2.
				var commits []trace.Event
				for _, r := range rec.Records {
					if r.Rule == "" {
						continue
					}
					commits = append(commits, trace.Event{Kind: trace.KindCommit,
						Rule: r.Rule, Inst: r.Inst, WMEs: r.WMEs})
				}
				if len(commits) != res.Firings {
					t.Fatalf("recovered %d commit records, want %d", len(commits), res.Firings)
				}
				if err := CheckTrace(prog, commits); err != nil {
					t.Fatalf("recovered trace not admissible: %v", err)
				}
			})
		}
	}
}

// independentProgram mirrors workload.Independent (the engine package
// cannot import workload): n rules over n private classes, each
// stepping its own counter tuple `steps` times. Pairwise
// non-interfering, so the Static engine fires them as one batch.
func independentProgram(n, steps int) Program {
	var p Program
	for r := 0; r < n; r++ {
		cls := fmt.Sprintf("cell%d", r)
		p.Rules = append(p.Rules, &match.Rule{
			Name: fmt.Sprintf("step%d", r),
			Conditions: []match.Condition{
				{Class: cls, Tests: []match.AttrTest{
					{Attr: "v", Op: match.OpEq, Var: "x"},
					{Attr: "v", Op: match.OpLt, Const: wm.Int(int64(steps))},
				}},
			},
			Actions: []match.Action{
				{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
					{Attr: "v", Expr: match.BinExpr{Op: match.ArithAdd,
						L: match.VarExpr{Name: "x"}, R: match.ConstExpr{Val: wm.Int(1)}}},
				}},
			},
		})
		p.WMEs = append(p.WMEs, InitialWME{Class: cls, Attrs: attrs("v", 0)})
	}
	return p
}

// TestStorageGroupCommitStatic checks deterministic fsync batching:
// the Static engine's execute batch is its fsync group, so syncs equal
// cycles, not firings.
func TestStorageGroupCommitStatic(t *testing.T) {
	prog := independentProgram(6, 5)
	m := storage.NewMem()
	eng, err := NewStatic(prog, Options{Np: 4, Storage: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Metrics().Snapshot()
	appends := snap.Counter("wal_append_total")
	fsyncs := snap.Counter("wal_fsync_total")
	if appends != int64(res.Firings) {
		t.Fatalf("wal_append_total = %d, firings = %d", appends, res.Firings)
	}
	if fsyncs != int64(res.Cycles) {
		t.Fatalf("fsyncs = %d, want one per cycle (%d)", fsyncs, res.Cycles)
	}
	if res.Cycles >= res.Firings {
		t.Fatalf("degenerate batching: %d cycles for %d firings", res.Cycles, res.Firings)
	}
	h, ok := snap.Histogram("wal_group_size")
	if !ok || h.Count != fsyncs || h.Sum != int64(res.Firings) {
		t.Fatalf("wal_group_size = %+v, want count %d sum %d", h, fsyncs, res.Firings)
	}
}

// TestStorageGroupCommitParallel checks the parallel committer's
// durability invariants: every firing appended, every append fsynced
// on its own before the firing's reply closes (so the storage layer's
// fsync groups are all of size one, and wal_fsync_total equals
// wal_append_total equals the firing count), and a commit trace that
// stays admissible with a backend attached.
func TestStorageGroupCommitParallel(t *testing.T) {
	prog := tallyProgram(6, 5)
	m := storage.NewMem()
	eng, err := NewParallel(prog, lock.SchemeRcRaWa, Options{Np: 4, Storage: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTrace(prog, res.Log.Commits()); err != nil {
		t.Fatal(err)
	}
	snap := eng.Metrics().Snapshot()
	appends := snap.Counter("wal_append_total")
	fsyncs := snap.Counter("wal_fsync_total")
	if appends != int64(res.Firings) || fsyncs != appends {
		t.Fatalf("wal_append_total = %d, wal_fsync_total = %d, want both = %d firings",
			appends, fsyncs, res.Firings)
	}
	h, ok := snap.Histogram("wal_group_size")
	if !ok || h.Count != fsyncs || h.Sum != appends {
		t.Fatalf("wal_group_size = %+v, want count %d sum %d", h, fsyncs, appends)
	}
}

// TestStorageGroupCommitSerial pins where the serial engines fsync:
// Single after every commit, a Session only at its ack boundary —
// Sync, or the end of Run — so one fsync covers every commit staged
// since the last one.
func TestStorageGroupCommitSerial(t *testing.T) {
	prog := tallyProgram(4, 3)
	single, err := NewSingle(prog, Options{Storage: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := single.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := single.Metrics().Snapshot()
	if fsyncs := snap.Counter("wal_fsync_total"); fsyncs != int64(res.Firings) {
		t.Fatalf("Single fsynced %d times for %d firings, want one per commit", fsyncs, res.Firings)
	}

	fb := storagetest.New(storage.NewMem(), storagetest.None, 0)
	s, err := NewSession(prog, Options{Storage: fb})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if name, err := s.Step(); name == "" || err != nil {
			t.Fatalf("Step %d = %q, %v", i, name, err)
		}
	}
	if fb.Syncs() != 0 || fb.Appends() != 5 {
		t.Fatalf("after 5 steps: %d syncs, %d appends; want 0 and 5", fb.Syncs(), fb.Appends())
	}
	for i := 0; i < 2; i++ {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if fb.Syncs() != 1 || fb.Durable() != 5 {
		t.Fatalf("two Syncs: %d fsyncs covering %d records; want 1 covering 5 (nothing staged for the second)",
			fb.Syncs(), fb.Durable())
	}
	n, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n+5 != res.Firings || fb.Syncs() != 2 || fb.Durable() != res.Firings {
		t.Fatalf("Run fired %d with %d fsyncs covering %d records; want %d, 2, %d",
			n, fb.Syncs(), fb.Durable(), res.Firings-5, res.Firings)
	}
	snap = s.Metrics().Snapshot()
	h, ok := snap.Histogram("wal_group_size")
	if fsyncs := snap.Counter("wal_fsync_total"); fsyncs != 2 || !ok || h.Count != 2 || h.Sum != int64(res.Firings) {
		t.Fatalf("wal_fsync_total = %d, wal_group_size = %+v; want 2 groups summing to %d", fsyncs, h, res.Firings)
	}
}

// TestStorageAutoCheckpoint drives the file backend past its
// checkpoint threshold and checks a snapshot appears, old segments are
// pruned, and recovery still reproduces the final store.
func TestStorageAutoCheckpoint(t *testing.T) {
	prog := tallyProgram(6, 6)
	dir := t.TempDir()
	f, err := storage.OpenFile(dir, storage.FileOptions{SegmentBytes: 1 << 10, CheckpointBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewParallel(prog, lock.SchemeRcRaWa, Options{Np: 4, Storage: f})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	snap := eng.Metrics().Snapshot()
	if snap.Counter("checkpoint_total") == 0 {
		t.Fatal("no checkpoint triggered despite tiny threshold")
	}
	g, err := storage.OpenFile(dir, storage.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec, err := g.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLSN == 0 {
		t.Fatal("recovery did not use a snapshot")
	}
	if int(rec.LSN) != res.Firings {
		t.Fatalf("recovered LSN = %d, want %d firings", rec.LSN, res.Firings)
	}
	if !bytes.Equal(storeSnapshot(t, rec.Store), storeSnapshot(t, eng.Store())) {
		t.Fatal("recovered store differs from final working memory after checkpoint")
	}
}
