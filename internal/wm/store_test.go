package wm

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func attrs(kv ...interface{}) map[string]Value {
	m := make(map[string]Value)
	for _, a := range assigns(kv...) {
		m[a.Name] = a.Val
	}
	return m
}

// assigns is attrs as an assignment list, in argument order.
func assigns(kv ...interface{}) []AttrValue {
	var out []AttrValue
	for i := 0; i < len(kv); i += 2 {
		var val Value
		switch v := kv[i+1].(type) {
		case int:
			val = Int(int64(v))
		case int64:
			val = Int(v)
		case float64:
			val = Float(v)
		case string:
			val = Sym(v)
		case bool:
			val = Bool(v)
		case Value:
			val = v
		default:
			panic("bad attr value")
		}
		out = append(out, AttrValue{kv[i].(string), val})
	}
	return out
}

// toAssigns lists a map's assignments in name order.
func toAssigns(m map[string]Value) []AttrValue {
	out := make([]AttrValue, 0, len(m))
	for k, v := range m {
		out = append(out, AttrValue{k, v})
	}
	slices.SortFunc(out, func(x, y AttrValue) int { return strings.Compare(x.Name, y.Name) })
	return out
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
	old, n, err := s.Modify(w.ID, assigns("status", "done"))
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
	b := s.Insert("b", attrs("n", 2))
	c := s.Insert("a", attrs("n", 3))
	as := s.ByClass("a")
	if len(as) != 2 || as[0] != a || as[1] != c {
		t.Fatalf("ByClass(a) = %v", as)
	}
	s.Remove(a.ID)
	s.Remove(c.ID)
	if got := s.ByClass("a"); len(got) != 0 {
		t.Fatalf("ByClass(a) after removes = %v", got)
	}
	if got := s.ByClass("b"); len(got) != 1 || got[0] != b {
		t.Fatalf("ByClass(b) after removes = %v", got)
	}
	if got := s.All(); len(got) != 1 || got[0] != b {
		t.Fatalf("All after removes = %v", got)
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
	n := w.WithAttrs([]AttrValue{{"a", Nil()}, {"c", Int(3)}})
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
// slice of the added version instead of copying it. The ceiling is
// what Apply returns: the array behind both result slices, the new
// version and the delta. The modified tuple is its class's only one,
// so emptying and recreating the class map would cost more.
func TestApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	s := NewStore()
	cur := s.Insert("part", attrs("id", 1, "stage", 0, "w", 2.5, "name", "axle", "ok", true))
	d := &Delta{Removes: []*WME{cur}, Adds: []*WME{cur.WithAttrs(assigns("stage", 1))}}
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
	const ceiling = 3
	if n > ceiling {
		t.Errorf("Apply of one modify: %v allocations, want at most %d (the added version adopts its attribute slice)", n, ceiling)
	}
}

// TestApplyDuplicateRemove: a delta that lists one WME twice removes
// it once, so Len, All and Get agree afterwards.
func TestApplyDuplicateRemove(t *testing.T) {
	s := NewStore()
	w := s.Insert("part", attrs("id", 1))
	s.Insert("part", attrs("id", 2))
	if _, err := s.Apply(&Delta{Removes: []*WME{w, w}}); err != nil {
		t.Fatal(err)
	}
	if n, all := s.Len(), len(s.All()); n != 1 || all != 1 {
		t.Fatalf("after removing one of two tuples twice: Len %d, All %d, want 1 and 1", n, all)
	}
	if _, ok := s.Get(w.ID); ok {
		t.Fatalf("Get(%d) still finds the removed tuple", w.ID)
	}
}

// TestTxnCommitAllocs: a one-attribute modify through a transaction
// stages into two slices backed by the Txn itself and commits without
// building a map. The ceiling counts the Txn, the staged version and
// its attribute slice, and the three of Apply (see TestApplyAllocs).
func TestTxnCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	s := NewStore()
	cur := s.Insert("part", attrs("id", 1, "stage", 0))
	up := assigns("stage", 1)
	n := testing.AllocsPerRun(100, func() {
		tx := s.Begin()
		if _, err := tx.Modify(cur.ID, up); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := s.Get(cur.ID); got.String() != "(part ^id 1 ^stage 1)" {
		t.Fatalf("committed %s", got)
	}
	const ceiling = 6
	if n > ceiling {
		t.Errorf("Begin/Modify/Commit of one attribute: %v allocations, want at most %d", n, ceiling)
	}
}

// TestStoreInsertAllocs: an insert allocates the WME and its attribute
// slice; the ID index adds no per-insert node.
func TestStoreInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	s := NewStore()
	a := attrs("id", 1, "stage", 0)
	n := testing.AllocsPerRun(1000, func() { s.Insert("part", a) })
	const ceiling = 2
	if n > ceiling {
		t.Errorf("Insert of two attributes: %v allocations, want at most %d", n, ceiling)
	}
}

// TestStoreClassChurnAllocs: inserting and removing a class's only
// tuple allocates the WME and its attribute slice and nothing else;
// the emptied class map stays for the next insert.
func TestStoreClassChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	s := NewStore()
	a := attrs("goal", "sort")
	n := testing.AllocsPerRun(1000, func() {
		w := s.Insert("goal", a)
		if _, ok := s.Remove(w.ID); !ok {
			t.Fatal("remove of the inserted tuple failed")
		}
	})
	const ceiling = 2
	if n > ceiling {
		t.Errorf("Insert+Remove of a class's only tuple: %v allocations, want at most %d", n, ceiling)
	}
}

// TestStoreGetDuringApply: readers call Get and Live on every tuple
// while a writer commits modify deltas that span classes. A delta is
// applied under one lock, so no reader may ever see a tuple absent,
// and a version Live reports dead must already have a newer one.
func TestStoreGetDuringApply(t *testing.T) {
	s := NewStore()
	var ids []int64
	for i := 0; i < 64; i++ {
		ids = append(ids, s.Insert(fmt.Sprintf("c%d", i%5), attrs("n", 0)).ID)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for _, id := range ids {
					w, ok := s.Get(id)
					if !ok {
						errs <- fmt.Errorf("Get(%d) found no tuple", id)
						return
					}
					if !s.Live(id, w.TimeTag) {
						if n, ok := s.Get(id); !ok || n.TimeTag <= w.TimeTag {
							errs <- fmt.Errorf("Live(%d, %d) false without a newer version", id, w.TimeTag)
							return
						}
					}
				}
			}
		}()
	}
	for round := 0; round < 2000; round++ {
		// Every fourth tuple from a rotating start, over five classes.
		d := &Delta{}
		for i := round % 4; i < len(ids); i += 4 {
			cur, _ := s.Get(ids[i])
			d.Removes = append(d.Removes, cur)
			d.Adds = append(d.Adds, cur.WithAttrs(assigns("n", round)))
		}
		if round%2 == 0 {
			if _, err := s.Apply(d); err != nil {
				t.Fatal(err)
			}
			continue
		}
		tx := s.Begin()
		for _, w := range d.Removes {
			if _, err := tx.Modify(w.ID, assigns("n", round)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ids))
	}
}
