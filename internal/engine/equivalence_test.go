package engine

import (
	"fmt"
	"sort"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/wm"
)

// wmFingerprint returns the working memory's content multiset,
// independent of IDs and time tags.
func wmFingerprint(s *wm.Store) []string {
	var out []string
	for _, w := range s.All() {
		out = append(out, w.String())
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// confluentPrograms are workloads whose final working memory is
// independent of the execution order (every valid sequence converges).
func confluentPrograms() map[string]func() Program {
	return map[string]func() Program{
		"pipeline":  func() Program { return pipelineProgram(6, 4) },
		"tally":     func() Program { return tallyProgram(4, 3) },
		"counter":   func() Program { return counterProgram(7) },
		"two-class": twoClassProgram,
	}
}

func twoClassProgram() Program {
	mk := func(name, cls string) *match.Rule {
		return &match.Rule{
			Name: name,
			Conditions: []match.Condition{
				{Class: cls, Tests: []match.AttrTest{{Attr: "v", Op: match.OpGt, Const: wm.Int(0)}}},
			},
			Actions: []match.Action{
				{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
					{Attr: "v", Expr: match.ConstExpr{Val: wm.Int(0)}}}},
			},
		}
	}
	p := Program{Rules: []*match.Rule{mk("za", "a"), mk("zb", "b")}}
	for i := 0; i < 5; i++ {
		p.WMEs = append(p.WMEs,
			InitialWME{Class: "a", Attrs: attrs("v", i+1, "id", i)},
			InitialWME{Class: "b", Attrs: attrs("v", i+1, "id", i)},
		)
	}
	return p
}

// TestEngineEquivalenceOnConfluentWorkloads runs every engine on
// order-independent workloads
// and requires identical final working-memory contents — the
// observable consequence of semantic consistency on these programs.
func TestEngineEquivalenceOnConfluentWorkloads(t *testing.T) {
	for name, mk := range confluentPrograms() {
		t.Run(name, func(t *testing.T) {
			var want []string
			runAndCompare := func(label string, eng interface {
				Run() (Result, error)
				Store() *wm.Store
			}, prog Program) {
				t.Helper()
				res, err := eng.Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.LimitHit {
					t.Fatalf("%s: hit firing limit", label)
				}
				if err := CheckTrace(prog, res.Log.Commits()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := wmFingerprint(eng.Store())
				if want == nil {
					want = got
					return
				}
				if !equal(got, want) {
					t.Fatalf("%s: final WM differs\n got: %v\nwant: %v", label, got, want)
				}
			}

			prog := mk()
			single, err := NewSingle(prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			runAndCompare("single", single, prog)
			for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
				for np := 1; np <= 4; np += 3 {
					prog := mk()
					e, err := NewParallel(prog, scheme, Options{Np: np})
					if err != nil {
						t.Fatal(err)
					}
					runAndCompare(fmt.Sprintf("parallel/%v/np%d", scheme, np), e, prog)
				}
			}
			prog = mk()
			static, err := NewStatic(prog, Options{Np: 4})
			if err != nil {
				t.Fatal(err)
			}
			runAndCompare("static", static, prog)
		})
	}
}
