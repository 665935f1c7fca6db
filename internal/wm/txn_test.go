package wm

import "testing"

func TestTxnReadYourWrites(t *testing.T) {
	s := NewStore()
	base := s.Insert("part", attrs("status", "raw"))

	tx := s.Begin()
	staged := tx.Insert("part", assigns("status", "new"))
	if _, ok := tx.Get(staged.ID); !ok {
		t.Fatal("txn must see its own insert")
	}
	if _, ok := s.Get(staged.ID); ok {
		t.Fatal("store must not see staged insert before commit")
	}
	if got := tx.ByClass("part"); len(got) != 2 {
		t.Fatalf("txn ByClass = %d WMEs, want 2", len(got))
	}

	if _, err := tx.Modify(base.ID, assigns("status", "done")); err != nil {
		t.Fatal(err)
	}
	got, _ := tx.Get(base.ID)
	if !got.Attr("status").Equal(Sym("done")) {
		t.Fatal("txn must see its own modify")
	}
	storeView, _ := s.Get(base.ID)
	if !storeView.Attr("status").Equal(Sym("raw")) {
		t.Fatal("store must not see staged modify")
	}

	d, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removes) != 1 || len(d.Adds) != 2 {
		t.Fatalf("delta = %d removes, %d adds; want 1, 2", len(d.Removes), len(d.Adds))
	}
	after, _ := s.Get(base.ID)
	if !after.Attr("status").Equal(Sym("done")) {
		t.Fatal("commit did not apply modify")
	}
	if _, ok := s.Get(staged.ID); !ok {
		t.Fatal("commit did not apply insert")
	}
}

func TestTxnAbortDiscards(t *testing.T) {
	s := NewStore()
	base := s.Insert("x", attrs("v", 1))
	tx := s.Begin()
	tx.Insert("x", assigns("v", 2))
	if err := tx.Remove(base.ID); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if s.Len() != 1 {
		t.Fatalf("abort leaked changes: Len = %d", s.Len())
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("commit after abort should fail")
	}
}

func TestTxnRemoveStagedInsert(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	w := tx.Insert("x", assigns("v", 1))
	if err := tx.Remove(w.ID); err != nil {
		t.Fatal(err)
	}
	d := tx.Delta()
	if !d.Empty() {
		t.Fatalf("insert+remove should yield empty delta, got %+v", d)
	}
}

func TestTxnRemoveThenCommit(t *testing.T) {
	s := NewStore()
	a := s.Insert("x", attrs("v", 1))
	tx := s.Begin()
	if err := tx.Remove(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := tx.Get(a.ID); ok {
		t.Fatal("txn must not see removed WME")
	}
	if got := tx.ByClass("x"); len(got) != 0 {
		t.Fatal("ByClass must not include removed WME")
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("remove not committed")
	}
}

func TestTxnModifyStagedInsert(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	w := tx.Insert("x", assigns("v", 1))
	if _, err := tx.Modify(w.ID, assigns("v", 2)); err != nil {
		t.Fatal(err)
	}
	d := tx.Delta()
	if len(d.Removes) != 0 || len(d.Adds) != 1 {
		t.Fatalf("modify of staged insert: delta = %d removes, %d adds; want 0,1", len(d.Removes), len(d.Adds))
	}
	if !d.Adds[0].Attr("v").Equal(Int(2)) {
		t.Fatal("staged modify lost")
	}
}

func TestTxnModifyOfRemovedFails(t *testing.T) {
	s := NewStore()
	a := s.Insert("x", attrs("v", 1))
	tx := s.Begin()
	if err := tx.Remove(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Modify(a.ID, assigns("v", 2)); err == nil {
		t.Fatal("modify of removed WME should error")
	}
	if err := tx.Remove(999); err == nil {
		t.Fatal("remove of absent WME should error")
	}
}

func TestTxnDoubleModifyProducesSingleDelta(t *testing.T) {
	s := NewStore()
	a := s.Insert("x", attrs("v", 1))
	tx := s.Begin()
	if _, err := tx.Modify(a.ID, assigns("v", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Modify(a.ID, assigns("v", 3)); err != nil {
		t.Fatal(err)
	}
	d := tx.Delta()
	if len(d.Removes) != 1 || len(d.Adds) != 1 {
		t.Fatalf("delta = %d removes, %d adds; want 1,1", len(d.Removes), len(d.Adds))
	}
	if !d.Adds[0].Attr("v").Equal(Int(3)) {
		t.Fatal("final value lost")
	}
}
