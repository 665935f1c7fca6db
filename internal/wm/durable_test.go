// Black-box tests of working-memory durability: committed transaction
// deltas are logged to the file storage backend and the store is
// rebuilt from it on reopen. The package is wm_test because storage
// imports wm.
package wm_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pdps/internal/storage"
	"pdps/internal/wm"
)

// commitLogged runs one insert transaction on s and stages its delta
// on the backend, as the engine's committer does.
func commitLogged(t *testing.T, f *storage.File, s *wm.Store, class string, v int64) {
	t.Helper()
	tx := s.Begin()
	tx.Insert(class, []wm.AttrValue{{Name: "v", Val: wm.Int(v)}})
	delta, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(&storage.Record{Delta: delta}); err != nil {
		t.Fatal(err)
	}
}

func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

func TestDurableTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	f, err := storage.OpenFile(dir, storage.FileOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	commitLogged(t, f, live, "a", 1)
	commitLogged(t, f, live, "a", 2)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the newest segment.
	segs := segments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no log segment written")
	}
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-6], 0o644); err != nil {
		t.Fatal(err)
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
	// First record survives, torn second is dropped.
	if got := len(rec.Store.ByClass("a")); got != 1 {
		t.Fatalf("recovered %d tuples, want 1", got)
	}
	if rec.LSN != 1 {
		t.Fatalf("recovered LSN = %d, want 1", rec.LSN)
	}
}

func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	f, err := storage.OpenFile(dir, storage.FileOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := wm.NewStore()
	for i := int64(0); i < 5; i++ {
		commitLogged(t, f, live, "a", i)
	}
	if f.LSN() != 5 {
		t.Fatalf("LSN = %d, want 5", f.LSN())
	}
	if err := f.Checkpoint(live.Clone()); err != nil {
		t.Fatal(err)
	}
	// Only the fresh live segment remains; the covered log is gone.
	if segs := segments(t, dir); len(segs) != 1 {
		t.Fatalf("segments after checkpoint = %v, want one fresh log", segs)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
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
	if len(rec.Records) != 0 || rec.SnapshotLSN != 5 {
		t.Fatalf("checkpoint must start a fresh log: records=%d snapshotLSN=%d", len(rec.Records), rec.SnapshotLSN)
	}
	if rec.Store.Len() != 5 {
		t.Fatalf("recovered %d tuples, want 5", rec.Store.Len())
	}
}
