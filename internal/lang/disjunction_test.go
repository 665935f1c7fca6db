package lang

import (
	"strings"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/match"
	"pdps/internal/wm"
)

const disjProgram = `
(p triage
  (ticket ^severity << critical high >> ^state open)
  -->
  (modify 1 ^state assigned))

(wme ticket ^id 1 ^severity critical ^state open)
(wme ticket ^id 2 ^severity low ^state open)
(wme ticket ^id 3 ^severity high ^state open)
`

func TestParseDisjunction(t *testing.T) {
	prog, err := Parse(disjProgram)
	if err != nil {
		t.Fatal(err)
	}
	tests := prog.Rules[0].Conditions[0].Tests
	if len(tests) != 2 {
		t.Fatalf("tests = %v", tests)
	}
	d := tests[0]
	if !d.IsDisjunction() || len(d.OneOf) != 2 {
		t.Fatalf("disjunction not parsed: %+v", d)
	}
	if !d.OneOf[0].Equal(wm.Sym("critical")) || !d.OneOf[1].Equal(wm.Sym("high")) {
		t.Fatalf("alternatives = %v", d.OneOf)
	}
	if !d.Matches(wm.Sym("high")) || d.Matches(wm.Sym("low")) {
		t.Fatal("Matches wrong")
	}
}

// TestDisjunctionRunsOnAllMatchers runs a disjunctive program on the
// engine's Rete network with Verify on, so every firing is also
// checked against the generate-and-test matcher.
func TestDisjunctionRunsOnAllMatchers(t *testing.T) {
	prog := MustParse(disjProgram)
	e, err := engine.NewSingle(prog, engine.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 2 {
		t.Fatalf("firings = %d, want 2 (critical and high only)", res.Firings)
	}
	assigned := 0
	for _, w := range e.Store().ByClass("ticket") {
		if w.Attr("state").Equal(wm.Sym("assigned")) {
			assigned++
		}
	}
	if assigned != 2 {
		t.Fatalf("assigned = %d", assigned)
	}
}

func TestDisjunctionRoundTrip(t *testing.T) {
	prog := MustParse(disjProgram)
	text := Format(prog)
	if !strings.Contains(text, "<< critical high >>") {
		t.Fatalf("printer lost disjunction:\n%s", text)
	}
	again, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if Format(again) != text {
		t.Fatal("round-trip unstable")
	}
}

func TestDisjunctionErrors(t *testing.T) {
	if _, err := Parse("(p r (a ^v << >>) --> (halt))"); err == nil ||
		!strings.Contains(err.Error(), "empty value disjunction") {
		t.Fatalf("empty disjunction: %v", err)
	}
	if _, err := Parse("(p r (a ^v << 1 2) --> (halt))"); err == nil {
		t.Fatal("unterminated disjunction must error")
	}
}

func TestDisjunctionMixedKinds(t *testing.T) {
	// Numbers and symbols can mix; numeric equality crosses int/float.
	r := &match.Rule{
		Name: "m",
		Conditions: []match.Condition{
			{Class: "a", Tests: []match.AttrTest{
				{Attr: "v", OneOf: []wm.Value{wm.Int(3), wm.Sym("none")}},
			}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	prog := engine.Program{Rules: []*match.Rule{r}, WMEs: []engine.InitialWME{
		{Class: "a", Attrs: map[string]wm.Value{"v": wm.Float(3.0)}},
		{Class: "a", Attrs: map[string]wm.Value{"v": wm.Sym("none")}},
		{Class: "a", Attrs: map[string]wm.Value{"v": wm.Int(4)}},
	}}
	e, err := engine.NewSingle(prog, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 2 || e.Store().Len() != 1 {
		t.Fatalf("firings = %d, left = %d", res.Firings, e.Store().Len())
	}
}
