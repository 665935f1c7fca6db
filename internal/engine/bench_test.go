package engine

import (
	"fmt"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/wm"
)

// pipelineRulesFor builds the advance/finish rules of one pipeline
// over the given class (cf. pipelineProgram, which hard-codes "part").
func pipelineRulesFor(cls string, stages int) []*match.Rule {
	var rules []*match.Rule
	for s := 0; s < stages-1; s++ {
		rules = append(rules, &match.Rule{
			Name: fmt.Sprintf("advance-%s-%d", cls, s),
			Conditions: []match.Condition{
				{Class: cls, Tests: []match.AttrTest{
					{Attr: "stage", Op: match.OpEq, Const: wm.Int(int64(s))},
				}},
			},
			Actions: []match.Action{
				{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
					{Attr: "stage", Expr: match.ConstExpr{Val: wm.Int(int64(s + 1))}},
				}},
			},
		})
	}
	rules = append(rules, &match.Rule{
		Name: "finish-" + cls,
		Conditions: []match.Condition{
			{Class: cls, Tests: []match.AttrTest{
				{Attr: "stage", Op: match.OpEq, Const: wm.Int(int64(stages - 1))},
			}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	})
	return rules
}

// lowConflictProgram builds nClasses independent pipelines: class ci's
// parts move through stages 0..stages-1 and are removed at the end.
// Instantiations of different classes touch disjoint WMEs and disjoint
// lock resources, so under the paper's model their firings are fully
// parallel — any residual serialization is engine overhead.
func lowConflictProgram(classes, parts, stages int) Program {
	p := Program{}
	for c := 0; c < classes; c++ {
		cls := fmt.Sprintf("part%d", c)
		p.Rules = append(p.Rules, pipelineRulesFor(cls, stages)...)
		for i := 0; i < parts; i++ {
			p.WMEs = append(p.WMEs, InitialWME{Class: cls, Attrs: attrs("stage", 0, "id", i)})
		}
	}
	return p
}

// BenchmarkParallelLowConflict measures dynamic-engine throughput on
// the low-conflict workload across worker counts. The workload has no
// Rc/Ra/Wa conflicts between classes, so ideally ns/op falls as Np
// rises; the gap from that ideal is software-lock contention (the
// overhead Section 5's speed-up model does not charge for).
func BenchmarkParallelLowConflict(b *testing.B) {
	const classes, parts, stages = 8, 8, 4
	want := classes * parts * stages
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		for _, np := range []int{1, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/np=%d", scheme, np), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					prog := lowConflictProgram(classes, parts, stages)
					e, err := NewParallel(prog, scheme, Options{Np: np})
					if err != nil {
						b.Fatal(err)
					}
					res, err := e.Run()
					if err != nil {
						b.Fatal(err)
					}
					if res.Firings != want {
						b.Fatalf("firings = %d, want %d", res.Firings, want)
					}
				}
				b.ReportMetric(float64(want)*float64(b.N)/b.Elapsed().Seconds(), "firings/s")
			})
		}
	}
}
