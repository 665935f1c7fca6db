package match

import (
	"testing"

	"pdps/internal/wm"
)

func TestClassAttrOverlaps(t *testing.T) {
	cases := []struct {
		a, b ClassAttr
		want bool
	}{
		{ClassAttr{"p", "x"}, ClassAttr{"p", "x"}, true},
		{ClassAttr{"p", "x"}, ClassAttr{"p", "y"}, false},
		{ClassAttr{"p", "x"}, ClassAttr{"q", "x"}, false},
		{ClassAttr{"p", ""}, ClassAttr{"p", "y"}, true},
		{ClassAttr{"p", "x"}, ClassAttr{"p", ""}, true},
		{ClassAttr{"p", ""}, ClassAttr{"q", ""}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRuleRWSet(t *testing.T) {
	r := &Rule{
		Name: "r",
		Conditions: []Condition{
			{Class: "part", Tests: []AttrTest{
				{Attr: "id", Op: OpEq, Var: "x"},
				{Attr: "status", Op: OpEq, Const: wm.Sym("ready")},
			}},
			{Class: "defect", Negated: true, Tests: []AttrTest{{Attr: "part", Op: OpEq, Var: "x"}}},
		},
		Actions: []Action{
			{Kind: ActModify, CE: 0, Assigns: []AttrAssign{{Attr: "status", Expr: ConstExpr{wm.Sym("done")}}}},
			{Kind: ActMake, Class: "log", Assigns: []AttrAssign{{Attr: "part", Expr: VarExpr{"x"}}}},
		},
	}
	s := RuleRWSet(r)
	wantReads := []ClassAttr{{"part", "id"}, {"part", "status"}, {"defect", "part"}, {"defect", ""}}
	for _, c := range wantReads {
		if !s.Reads[c] {
			t.Errorf("missing read %v in %v", c, s)
		}
	}
	wantWrites := []ClassAttr{{"part", "status"}, {"log", ""}}
	for _, c := range wantWrites {
		if !s.Writes[c] {
			t.Errorf("missing write %v in %v", c, s)
		}
	}
	if len(s.Writes) != 2 {
		t.Errorf("extra writes: %v", s)
	}
}

func TestRuleRWSetRemoveIsClassLevel(t *testing.T) {
	r := &Rule{
		Name:       "r",
		Conditions: []Condition{{Class: "a", Tests: []AttrTest{{Attr: "v", Op: OpEq, Const: wm.Int(1)}}}},
		Actions:    []Action{{Kind: ActRemove, CE: 0}},
	}
	s := RuleRWSet(r)
	if !s.Writes[ClassAttr{"a", ""}] {
		t.Fatalf("remove must write class-level: %v", s)
	}
}

func TestInterferes(t *testing.T) {
	mk := func(name, readClass, readAttr, writeClass, writeAttr string) *Rule {
		r := &Rule{
			Name: name,
			Conditions: []Condition{
				{Class: readClass, Tests: []AttrTest{{Attr: readAttr, Op: OpEq, Const: wm.Int(1)}}},
			},
			Actions: []Action{{Kind: ActMake, Class: writeClass,
				Assigns: []AttrAssign{{Attr: writeAttr, Expr: ConstExpr{wm.Int(1)}}}}},
		}
		return r
	}
	// writer of class b vs reader of class b: interfere (make is class-level).
	w := mk("w", "a", "x", "b", "y")
	rdr := mk("r", "b", "z", "c", "q")
	if !Interferes(w, rdr) || !Interferes(rdr, w) {
		t.Error("write-read interference missed (and must be symmetric)")
	}
	// disjoint classes: no interference.
	other := mk("o", "d", "x", "e", "y")
	if Interferes(w, other) {
		t.Error("false interference on disjoint classes")
	}
	// write-write on same class interferes.
	w2 := mk("w2", "f", "x", "b", "y")
	if !Interferes(w, w2) {
		t.Error("write-write interference missed")
	}
	// A CE with no attribute tests reads its tuple's existence, so a
	// remove of that class interferes with it:
	// (p e (c) --> (make log ^v 1)) against (p r (c ^y 0) --> (remove 1)).
	exists := &Rule{
		Name:       "e",
		Conditions: []Condition{{Class: "c"}},
		Actions: []Action{{Kind: ActMake, Class: "log",
			Assigns: []AttrAssign{{Attr: "v", Expr: ConstExpr{wm.Int(1)}}}}},
	}
	remover := &Rule{
		Name:       "r",
		Conditions: []Condition{{Class: "c", Tests: []AttrTest{{Attr: "y", Op: OpEq, Const: wm.Int(0)}}}},
		Actions:    []Action{{Kind: ActRemove, CE: 0}},
	}
	if !Interferes(exists, remover) || !Interferes(remover, exists) {
		t.Errorf("existence read missed: %v against %v", RuleRWSet(exists), RuleRWSet(remover))
	}
}

func TestInterferesModifyAttributeDisjoint(t *testing.T) {
	// Two rules modifying different attributes of the same class do not
	// interfere if neither reads the other's attribute.
	mkMod := func(name, readAttr, writeAttr string) *Rule {
		return &Rule{
			Name: name,
			Conditions: []Condition{
				{Class: "p", Tests: []AttrTest{{Attr: readAttr, Op: OpEq, Const: wm.Int(1)}}},
			},
			Actions: []Action{{Kind: ActModify, CE: 0,
				Assigns: []AttrAssign{{Attr: writeAttr, Expr: ConstExpr{wm.Int(2)}}}}},
		}
	}
	a := mkMod("a", "x", "x")
	b := mkMod("b", "y", "y")
	if Interferes(a, b) {
		t.Error("attribute-disjoint modifies should not interfere")
	}
	c := mkMod("c", "x", "y") // writes y which b reads
	if !Interferes(b, c) {
		t.Error("read-write overlap on p.y missed")
	}
}

func TestExecuteActions(t *testing.T) {
	s := wm.NewStore()
	p := s.Insert("part", attrs("id", 1, "count", 3))
	r := &Rule{
		Name: "r",
		Conditions: []Condition{
			{Class: "part", Tests: []AttrTest{{Attr: "id", Op: OpEq, Var: "x"}}},
		},
		Actions: []Action{
			{Kind: ActModify, CE: 0, Assigns: []AttrAssign{
				{Attr: "count", Expr: BinExpr{ArithAdd, ConstExpr{wm.Int(1)}, ConstExpr{wm.Int(3)}}},
			}},
			{Kind: ActMake, Class: "log", Assigns: []AttrAssign{{Attr: "part", Expr: VarExpr{"x"}}}},
		},
	}
	in := &Instantiation{Rule: r, WMEs: []*wm.WME{p}, Bindings: Bindings{"x": wm.Int(1)}}
	tx := s.Begin()
	halt, err := ExecuteActions(in, tx)
	if err != nil || halt {
		t.Fatalf("halt=%v err=%v", halt, err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(p.ID)
	if !got.Attr("count").Equal(wm.Int(4)) {
		t.Errorf("count = %v, want 4", got.Attr("count"))
	}
	logs := s.ByClass("log")
	if len(logs) != 1 || !logs[0].Attr("part").Equal(wm.Int(1)) {
		t.Errorf("log = %v", logs)
	}
}

// TestExecuteActionsRepeatedAttrLastWins pins the assignment rule a
// make or modify keeps now that its assignments reach the transaction
// as a list: when one action assigns a name twice, the last assignment
// wins, as it did when they were collected into a map.
func TestExecuteActionsRepeatedAttrLastWins(t *testing.T) {
	s := wm.NewStore()
	p := s.Insert("part", attrs("id", 1, "stage", 0))
	twice := func(first, last int) []AttrAssign {
		return []AttrAssign{
			{Attr: "stage", Expr: ConstExpr{wm.Int(int64(first))}},
			{Attr: "id", Expr: VarExpr{"x"}},
			{Attr: "stage", Expr: ConstExpr{wm.Int(int64(last))}},
		}
	}
	r := &Rule{
		Name:       "r",
		Conditions: []Condition{{Class: "part", Tests: []AttrTest{{Attr: "id", Op: OpEq, Var: "x"}}}},
		Actions: []Action{
			{Kind: ActModify, CE: 0, Assigns: twice(1, 2)},
			{Kind: ActMake, Class: "log", Assigns: twice(3, 4)},
		},
	}
	in := &Instantiation{Rule: r, WMEs: []*wm.WME{p}, Bindings: Bindings{"x": wm.Int(1)}}
	tx := s.Begin()
	if _, err := ExecuteActions(in, tx); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(p.ID)
	if want := "(part ^id 1 ^stage 2)"; got.String() != want {
		t.Errorf("modified part = %v, want %s", got, want)
	}
	logs := s.ByClass("log")
	if want := "(log ^id 1 ^stage 4)"; len(logs) != 1 || logs[0].String() != want {
		t.Errorf("made log = %v, want [%s]", logs, want)
	}
}

func TestExecuteActionsHaltAndErrors(t *testing.T) {
	s := wm.NewStore()
	p := s.Insert("part", attrs("id", 1))
	haltRule := &Rule{
		Name:       "h",
		Conditions: []Condition{{Class: "part"}},
		Actions:    []Action{{Kind: ActHalt}, {Kind: ActRemove, CE: 0}},
	}
	in := &Instantiation{Rule: haltRule, WMEs: []*wm.WME{p}, Bindings: Bindings{}}
	tx := s.Begin()
	halt, err := ExecuteActions(in, tx)
	if err != nil || !halt {
		t.Fatalf("halt=%v err=%v, want halt with no error", halt, err)
	}
	if tx.Pending() != 0 {
		t.Fatal("actions after halt must not run")
	}

	badExpr := &Rule{
		Name:       "b",
		Conditions: []Condition{{Class: "part"}},
		Actions: []Action{{Kind: ActMake, Class: "x",
			Assigns: []AttrAssign{{Attr: "v", Expr: VarExpr{"nope"}}}}},
	}
	in2 := &Instantiation{Rule: badExpr, WMEs: []*wm.WME{p}, Bindings: Bindings{}}
	if _, err := ExecuteActions(in2, s.Begin()); err == nil {
		t.Fatal("unbound variable in action must error")
	}
}
