package engine

import (
	"fmt"
	"testing"

	"pdps/internal/lock"
)

// TestEngineMatcherMatrix runs the full engines × matchers grid with
// semantic verification enabled on every confluent workload and
// requires every cell to converge to the same final working memory.
// The naive cells rebuild the conflict set per call and therefore
// exercise the committer's snapshot-reconcile dispatch path (the
// incremental matchers exercise the journal path).
func TestEngineMatcherMatrix(t *testing.T) {
	matchers := []string{"rete", "treat", "naive"}
	for name, mk := range confluentPrograms() {
		t.Run(name, func(t *testing.T) {
			var want []string
			check := func(label string, prog Program, res Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.LimitHit {
					t.Fatalf("%s: hit firing limit", label)
				}
				if err := CheckTrace(prog, res.Log.Commits()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := wmFingerprint(res.Store)
				if want == nil {
					want = got
					return
				}
				if !equal(got, want) {
					t.Fatalf("%s: final WM differs\n got: %v\nwant: %v", label, got, want)
				}
			}
			for _, m := range matchers {
				opts := Options{Matcher: m, Verify: true}
				prog := mk()
				e, err := NewSingle(prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				check("single/"+m, prog, res, err)

				prog = mk()
				st, err := NewStatic(prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err = st.Run()
				check("static/"+m, prog, res, err)
				for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
					prog := mk()
					popts := opts
					popts.Np = 8
					e, err := NewParallel(prog, scheme, popts)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run()
					check(fmt.Sprintf("parallel/%v/%s", scheme, m), prog, res, err)
				}
			}
		})
	}
}

// TestParallelHighNpLowConflict floods the dynamic engine with a
// low-conflict workload at high Np, with semantic verification on.
// The per-class pipelines are independent, so the run must finish with
// the exact firing count, no error (in particular no ErrInconsistent)
// and no aborts, for every scheme and matcher.
func TestParallelHighNpLowConflict(t *testing.T) {
	const classes, parts, stages = 4, 4, 4
	wantFirings := classes * parts * stages
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		for _, matcher := range []string{"rete", "treat", "naive"} {
			label := fmt.Sprintf("%v/%s", scheme, matcher)
			prog := lowConflictProgram(classes, parts, stages)
			e, err := NewParallel(prog, scheme, Options{Np: 16, Matcher: matcher, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Firings != wantFirings {
				t.Fatalf("%s: firings = %d, want %d", label, res.Firings, wantFirings)
			}
			if res.Aborts != 0 {
				t.Fatalf("%s: aborts = %d, want 0 (workload is conflict-free)", label, res.Aborts)
			}
			if err := CheckTrace(prog, res.Log.Commits()); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			snap := e.Metrics().Snapshot()
			dispatch, _ := snap.Gauge("engine_dispatch_depth")
			submit, _ := snap.Gauge("engine_submit_depth")
			if dispatch != 0 || submit != 0 {
				t.Fatalf("%s: pipeline queues not drained: engine_dispatch_depth=%d engine_submit_depth=%d",
					label, dispatch, submit)
			}
		}
	}
}
