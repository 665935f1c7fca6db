package wm

import (
	"sync"
	"testing"
)

func attrs(kv ...interface{}) map[string]Value {
	m := make(map[string]Value)
	for i := 0; i < len(kv); i += 2 {
		k := kv[i].(string)
		switch v := kv[i+1].(type) {
		case int:
			m[k] = Int(int64(v))
		case int64:
			m[k] = Int(v)
		case float64:
			m[k] = Float(v)
		case string:
			m[k] = Sym(v)
		case bool:
			m[k] = Bool(v)
		case Value:
			m[k] = v
		default:
			panic("bad attr value")
		}
	}
	return m
}

func TestStoreInsertGetRemove(t *testing.T) {
	s := NewStore()
	w := s.Insert("part", attrs("id", 1, "status", "ready"))
	if w.ID == 0 || w.TimeTag == 0 {
		t.Fatal("insert must assign ID and time tag")
	}
	got, ok := s.Get(w.ID)
	if !ok || got != w {
		t.Fatal("Get did not return inserted WME")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	old, ok := s.Remove(w.ID)
	if !ok || old != w {
		t.Fatal("Remove did not return the removed WME")
	}
	if s.Len() != 0 {
		t.Fatal("store not empty after remove")
	}
	if _, ok := s.Remove(w.ID); ok {
		t.Fatal("second remove should fail")
	}
}

func TestStoreModifyKeepsIDFreshTimeTag(t *testing.T) {
	s := NewStore()
	w := s.Insert("part", attrs("status", "raw"))
	old, n, err := s.Modify(w.ID, attrs("status", "done"))
	if err != nil {
		t.Fatal(err)
	}
	if old != w {
		t.Error("old version mismatch")
	}
	if n.ID != w.ID {
		t.Error("modify must keep the ID")
	}
	if n.TimeTag <= w.TimeTag {
		t.Error("modify must assign a fresh (larger) time tag")
	}
	if got := n.Attr("status"); !got.Equal(Sym("done")) {
		t.Errorf("status = %v, want done", got)
	}
	if _, _, err := s.Modify(999, nil); err == nil {
		t.Error("modify of absent WME should error")
	}
}

func TestStoreByClassAndClasses(t *testing.T) {
	s := NewStore()
	a := s.Insert("a", attrs("n", 1))
	s.Insert("b", attrs("n", 2))
	c := s.Insert("a", attrs("n", 3))
	as := s.ByClass("a")
	if len(as) != 2 || as[0] != a || as[1] != c {
		t.Fatalf("ByClass(a) = %v", as)
	}
	if got := s.Classes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Classes = %v", got)
	}
	s.Remove(a.ID)
	s.Remove(c.ID)
	if got := s.Classes(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Classes after removes = %v", got)
	}
}

func TestStoreApplyDeltaAndInvert(t *testing.T) {
	s := NewStore()
	w := s.Insert("x", attrs("v", 1))
	d := &Delta{
		Removes: []*WME{w},
		Adds:    []*WME{NewWME("y", attrs("v", 2))},
	}
	applied, err := s.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || len(s.ByClass("y")) != 1 {
		t.Fatal("delta not applied")
	}
	if applied.Adds[0].ID == 0 || applied.Adds[0].TimeTag == 0 {
		t.Fatal("apply must assign IDs/time tags")
	}
	// Undo restores the original x tuple (same ID).
	if _, err := s.Apply(applied.Invert()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(w.ID)
	if !ok || !got.EqualContent(w) {
		t.Fatal("invert did not restore original WME")
	}
	if len(s.ByClass("y")) != 0 {
		t.Fatal("invert did not remove added WME")
	}
}

func TestStoreApplyRemoveAbsentFails(t *testing.T) {
	s := NewStore()
	d := &Delta{Removes: []*WME{{ID: 42, Class: "x"}}}
	if _, err := s.Apply(d); err == nil {
		t.Fatal("apply removing absent WME must error")
	}
	if s.Len() != 0 {
		t.Fatal("failed apply must not change the store")
	}
}

func TestStoreClone(t *testing.T) {
	s := NewStore()
	w := s.Insert("a", attrs("n", 1))
	c := s.Clone()
	c.Remove(w.ID)
	if _, ok := s.Get(w.ID); !ok {
		t.Fatal("clone mutation leaked into original")
	}
	n := c.Insert("a", attrs("n", 2))
	if n.ID == w.ID {
		t.Fatal("clone must continue the original ID sequence")
	}
}

func TestStoreConcurrentInserts(t *testing.T) {
	s := NewStore()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				s.Insert("c", attrs("n", j))
			}
		}()
	}
	wg.Wait()
	if s.Len() != workers*each {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*each)
	}
	seen := make(map[int64]bool)
	for _, w := range s.All() {
		if seen[w.ID] {
			t.Fatalf("duplicate ID %d", w.ID)
		}
		seen[w.ID] = true
	}
}

func TestWMEStringAndWithAttrs(t *testing.T) {
	w := NewWME("part", attrs("b", 2, "a", 1))
	if got := w.String(); got != "(part ^a 1 ^b 2)" {
		t.Errorf("String = %q", got)
	}
	n := w.WithAttrs(map[string]Value{"a": Nil(), "c": Int(3)})
	if n.HasAttr("a") || !n.Attr("c").Equal(Int(3)) || !n.Attr("b").Equal(Int(2)) {
		t.Errorf("WithAttrs wrong: %v", n)
	}
	if w.HasAttr("c") {
		t.Error("WithAttrs mutated the receiver")
	}
}

func TestWMEEqualContent(t *testing.T) {
	a := NewWME("p", attrs("x", 1))
	b := NewWME("p", attrs("x", 1))
	c := NewWME("p", attrs("x", 2))
	d := NewWME("q", attrs("x", 1))
	e := NewWME("p", attrs("x", 1, "y", 2))
	if !a.EqualContent(b) {
		t.Error("a should equal b")
	}
	if a.EqualContent(c) || a.EqualContent(d) || a.EqualContent(e) {
		t.Error("content inequality not detected")
	}
}

// TestApplyAllocs: applying a one-modify delta adopts the attribute
// map of the added version instead of copying it. The ceiling is what
// Apply itself builds (the result slices and delta, the new version,
// the per-shard grouping and the re-add set); a copy of the
// five-attribute map costs two more.
func TestApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	s := NewStore()
	cur := s.Insert("part", attrs("id", 1, "stage", 0, "w", 2.5, "name", "axle", "ok", true))
	d := &Delta{Removes: []*WME{cur}, Adds: []*WME{cur.WithAttrs(attrs("stage", 1))}}
	var applied *Delta
	n := testing.AllocsPerRun(100, func() {
		var err error
		if applied, err = s.Apply(d); err != nil {
			t.Fatal(err)
		}
	})
	if got := applied.Adds[0]; got.String() != "(part ^id 1 ^name axle ^ok true ^stage 1 ^w 2.5)" {
		t.Fatalf("applied %s", got)
	}
	const ceiling = 10
	if n > ceiling {
		t.Errorf("Apply of one modify: %v allocations, want at most %d (the added version adopts its attribute map)", n, ceiling)
	}
}
