package engine

import (
	"bytes"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/storage"
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
// durability invariants: every firing appended, every append covered
// by some fsync before the run ends, ack only after sync (observable
// as fsyncs ≤ appends with a positive count), and a commit trace that
// stays admissible under group commit, with and without lock elision.
// Group sizes above one depend on fsync latency and scheduling, so
// amortization itself is a measurement (EXPERIMENTS.md, E19), not
// asserted here.
func TestStorageGroupCommitParallel(t *testing.T) {
	for _, elide := range []bool{false, true} {
		prog := tallyProgram(6, 5)
		m := storage.NewMem()
		eng, err := NewParallel(prog, lock.SchemeRcRaWa, Options{Np: 4, CommitBatch: 64, Storage: m, HybridElision: elide})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckTrace(prog, res.Log.Commits()); err != nil {
			t.Fatalf("elide=%v: %v", elide, err)
		}
		snap := eng.Metrics().Snapshot()
		appends := snap.Counter("wal_append_total")
		fsyncs := snap.Counter("wal_fsync_total")
		if appends != int64(res.Firings) {
			t.Fatalf("elide=%v: wal_append_total = %d, firings = %d", elide, appends, res.Firings)
		}
		if fsyncs == 0 || fsyncs > appends {
			t.Fatalf("elide=%v: fsyncs = %d out of range (appends %d)", elide, fsyncs, appends)
		}
		h, ok := snap.Histogram("wal_group_size")
		if !ok || h.Count != fsyncs || h.Sum != appends {
			t.Fatalf("elide=%v: wal_group_size = %+v, want count %d sum %d", elide, h, fsyncs, appends)
		}
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
