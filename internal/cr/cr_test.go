package cr

import (
	"fmt"
	"slices"
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// mkInst builds an instantiation of a one-CE rule over WMEs with the
// given time tags (tags are forced via repeated store inserts).
func mkInst(t *testing.T, s *wm.Store, name string, prio, tests int, n int) *match.Instantiation {
	t.Helper()
	var conds []match.Condition
	ts := make([]match.AttrTest, tests)
	for i := range ts {
		ts[i] = match.AttrTest{Attr: "v", Op: match.OpGe, Const: wm.Int(0)}
	}
	conds = append(conds, match.Condition{Class: "c", Tests: ts})
	r := &match.Rule{Name: name, Priority: prio, Conditions: conds,
		Actions: []match.Action{{Kind: match.ActHalt}}}
	wmes := make([]*wm.WME, n)
	for i := range wmes {
		wmes[i] = s.Insert("c", map[string]wm.Value{"v": wm.Int(0)})
	}
	return &match.Instantiation{Rule: r, WMEs: wmes, Bindings: match.Bindings{}}
}

func TestSpecificitySelectsMostSpecific(t *testing.T) {
	s := wm.NewStore()
	w := s.Insert("c", map[string]wm.Value{"v": wm.Int(0)})
	plain := mkInst(t, s, "plain", 0, 1, 0)
	plain.WMEs = []*wm.WME{w}
	specific := mkInst(t, s, "specific", 0, 4, 0)
	specific.WMEs = []*wm.WME{w}
	if got := (Specificity{}).Select([]*match.Instantiation{plain, specific}); got != specific {
		t.Fatalf("selected %s, want specific", got.Rule.Name)
	}
	// Equal specificity falls back to LEX (recency).
	old := mkInst(t, s, "old", 0, 2, 1)
	young := mkInst(t, s, "young", 0, 2, 1)
	if got := (Specificity{}).Select([]*match.Instantiation{old, young}); got != young {
		t.Fatalf("tie-break selected %s, want young", got.Rule.Name)
	}
}

func TestNewByName(t *testing.T) {
	for _, n := range []string{"fifo", "lex", "mea", "priority", "specificity", "random"} {
		st, err := New(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if st.Name() != n {
			t.Errorf("Name() = %s, want %s", st.Name(), n)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestLEXPrefersRecency(t *testing.T) {
	s := wm.NewStore()
	old := mkInst(t, s, "old", 0, 1, 1)
	young := mkInst(t, s, "young", 0, 1, 1) // inserted later => more recent
	got := LEX{}.Select([]*match.Instantiation{old, young})
	if got != young {
		t.Fatalf("LEX selected %s, want young", got.Rule.Name)
	}
}

func TestLEXTieBreaksOnSpecificity(t *testing.T) {
	s := wm.NewStore()
	w := s.Insert("c", map[string]wm.Value{"v": wm.Int(0)})
	plain := mkInst(t, s, "plain", 0, 1, 0)
	plain.WMEs = []*wm.WME{w}
	specific := mkInst(t, s, "specific", 0, 3, 0)
	specific.WMEs = []*wm.WME{w}
	got := LEX{}.Select([]*match.Instantiation{plain, specific})
	if got != specific {
		t.Fatalf("LEX selected %s, want specific", got.Rule.Name)
	}
}

func TestFIFOPrefersOldest(t *testing.T) {
	s := wm.NewStore()
	old := mkInst(t, s, "old", 0, 1, 1)
	young := mkInst(t, s, "young", 0, 1, 1)
	got := FIFO{}.Select([]*match.Instantiation{young, old})
	if got != old {
		t.Fatalf("FIFO selected %s, want old", got.Rule.Name)
	}
}

func TestMEAComparesFirstCE(t *testing.T) {
	s := wm.NewStore()
	a := mkInst(t, s, "a", 0, 1, 2) // first CE older
	b := mkInst(t, s, "b", 0, 1, 2)
	// Make a's overall recency higher but first-CE tag older than b's:
	// swap a's WME order so its first CE is the older one.
	a.WMEs[0], a.WMEs[1] = a.WMEs[1], a.WMEs[0]
	_ = b
	got := MEA{}.Select([]*match.Instantiation{a, b})
	if got != b {
		t.Fatalf("MEA selected %s, want b (more recent first CE)", got.Rule.Name)
	}
}

func TestPrioritySelectsHighest(t *testing.T) {
	s := wm.NewStore()
	low := mkInst(t, s, "low", 1, 1, 1)
	high := mkInst(t, s, "high", 9, 1, 1)
	got := Priority{}.Select([]*match.Instantiation{low, high})
	if got != high {
		t.Fatalf("Priority selected %s, want high", got.Rule.Name)
	}
	// Equal priority falls back to LEX (recency).
	low2 := mkInst(t, s, "low2", 1, 1, 1)
	got = Priority{}.Select([]*match.Instantiation{low, low2})
	if got != low2 {
		t.Fatalf("Priority tie-break selected %s, want low2", got.Rule.Name)
	}
}

func TestRandomIsSeededDeterministic(t *testing.T) {
	s := wm.NewStore()
	ins := []*match.Instantiation{
		mkInst(t, s, "a", 0, 1, 1),
		mkInst(t, s, "b", 0, 1, 1),
		mkInst(t, s, "c", 0, 1, 1),
	}
	r1, r2 := NewRandom(7), NewRandom(7)
	for i := 0; i < 20; i++ {
		if r1.Select(ins) != r2.Select(ins) {
			t.Fatal("same seed must give same sequence")
		}
	}
}

// TestRandomIsAFixedPermutation: Random's pick is the minimum of its
// dominance order, whatever order the candidates are listed in, and
// two seeds rank the same keys differently.
func TestRandomIsAFixedPermutation(t *testing.T) {
	s := wm.NewStore()
	var ins []*match.Instantiation
	for i := 0; i < 12; i++ {
		ins = append(ins, mkInst(t, s, fmt.Sprintf("r%d", i), 0, 1, 1))
	}
	rank := func(r Random) []string {
		sorted := slices.Clone(ins)
		slices.SortFunc(sorted, func(a, b *match.Instantiation) int {
			switch {
			case r.Dominates(&Rank{In: a}, &Rank{In: b}):
				return -1
			case r.Dominates(&Rank{In: b}, &Rank{In: a}):
				return 1
			}
			return 0
		})
		if got := r.Select(slices.Clone(ins)); got != sorted[0] {
			t.Fatalf("Select picked %s, the order's first is %s", got.Key(), sorted[0].Key())
		}
		slices.Reverse(ins)
		if got := r.Select(ins); got != sorted[0] {
			t.Fatalf("reversed input: Select picked %s, want %s", got.Key(), sorted[0].Key())
		}
		keys := make([]string, len(sorted))
		for i, in := range sorted {
			keys[i] = in.Key()
		}
		return keys
	}
	a, b := rank(NewRandom(1)), rank(NewRandom(2))
	if slices.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 rank %d keys identically: %v", len(a), a)
	}
	if again := rank(NewRandom(1)); !slices.Equal(a, again) {
		t.Fatalf("seed 1 ranked %v, then %v", a, again)
	}
}

func TestSelectSingleton(t *testing.T) {
	s := wm.NewStore()
	only := mkInst(t, s, "only", 0, 1, 1)
	for _, st := range []Strategy{FIFO{}, LEX{}, MEA{}, Priority{}, NewRandom(1)} {
		if got := st.Select([]*match.Instantiation{only}); got != only {
			t.Errorf("%s: singleton not selected", st.Name())
		}
	}
}

func TestCompareTagsLengths(t *testing.T) {
	if compareTags([]uint64{5}, []uint64{5, 1}) != -1 {
		t.Error("shorter vector must be older")
	}
	if compareTags([]uint64{5, 1}, []uint64{5}) != 1 {
		t.Error("longer vector must be newer")
	}
	if compareTags([]uint64{5, 1}, []uint64{5, 1}) != 0 {
		t.Error("equal vectors")
	}
}
