package engine

import (
	"path/filepath"
	"testing"
)

// TestOpenDurableSeedsThenAdopts drives the durable bootstrap through
// a fresh directory, a run, and a reopen: the first open seeds the
// initial working memory as one record, the reopen adopts the recovered
// store, and both clear the program's WMEs so nothing is inserted twice.
func TestOpenDurableSeedsThenAdopts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "deeper")
	prog := counterProgram(3)
	f, restore, rec, err := OpenDurable(dir, &prog)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 0 || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered LSN=%d records=%d", rec.LSN, len(rec.Records))
	}
	if prog.WMEs != nil || restore.Len() != 1 || f.LSN() != 1 {
		t.Fatalf("seed: WMEs=%v store=%d LSN=%d, want nil/1/1", prog.WMEs, restore.Len(), f.LSN())
	}
	eng, err := NewSingle(prog, Options{Storage: f, Restore: restore})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 3 {
		t.Fatalf("firings = %d, want 3", res.Firings)
	}
	want := storeSnapshot(t, eng.Store())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	again := counterProgram(3)
	g, restore, rec, err := OpenDurable(dir, &again)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if rec.LSN != 4 || len(rec.Records) != 4 || g.LSN() != 4 {
		t.Fatalf("reopen recovered LSN=%d records=%d backend LSN=%d, want 4/4/4", rec.LSN, len(rec.Records), g.LSN())
	}
	if again.WMEs != nil || restore != rec.Store {
		t.Fatal("reopen must adopt the recovered store and clear the program's WMEs")
	}
	if got := storeSnapshot(t, restore); string(got) != string(want) {
		t.Fatal("recovered store differs from the final live store")
	}
	// ID counters survive: a fresh insert gets a new ID.
	if w := restore.Insert("counter", attrs("n", 9)); w.ID <= 1 {
		t.Fatalf("ID reuse after recovery: %d", w.ID)
	}
}

// TestOpenDurableEmptyProgram checks that a program without initial
// working memory appends no seed record, so the directory stays fresh,
// and that closing the backend twice is harmless.
func TestOpenDurableEmptyProgram(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested")
	prog := Program{Rules: counterProgram(0).Rules}
	f, restore, _, err := OpenDurable(dir, &prog)
	if err != nil {
		t.Fatal(err)
	}
	if f.LSN() != 0 || restore.Len() != 0 {
		t.Fatalf("empty program: LSN=%d store=%d, want 0/0", f.LSN(), restore.Len())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
