package engine

import (
	"fmt"
	"testing"

	"pdps/internal/lock"
)

// TestEngineMatcherMatrix runs every engine, Parallel under both lock
// schemes, with semantic verification enabled on every confluent
// workload and requires every cell to converge to the same final
// working memory.
func TestEngineMatcherMatrix(t *testing.T) {
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
			prog := mk()
			e, err := NewSingle(prog, Options{Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			check("single", prog, res, err)

			prog = mk()
			st, err := NewStatic(prog, Options{Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err = st.Run()
			check("static", prog, res, err)
			for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
				prog := mk()
				e, err := NewParallel(prog, scheme, Options{Np: 8, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				check(fmt.Sprintf("parallel/%v", scheme), prog, res, err)
			}
		})
	}
}

// TestParallelHighNpLowConflict floods the dynamic engine with a
// low-conflict workload at high Np, with semantic verification on.
// The per-class pipelines are independent, so the run must finish with
// the exact firing count, no error (in particular no ErrInconsistent)
// and no aborts, under either scheme.
func TestParallelHighNpLowConflict(t *testing.T) {
	const classes, parts, stages = 4, 4, 4
	wantFirings := classes * parts * stages
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		prog := lowConflictProgram(classes, parts, stages)
		e, err := NewParallel(prog, scheme, Options{Np: 16, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Firings != wantFirings {
			t.Fatalf("%v: firings = %d, want %d", scheme, res.Firings, wantFirings)
		}
		if res.Aborts != 0 {
			t.Fatalf("%v: aborts = %d, want 0 (workload is conflict-free)", scheme, res.Aborts)
		}
		if err := CheckTrace(prog, res.Log.Commits()); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		snap := e.Metrics().Snapshot()
		dispatch, _ := snap.Gauge("engine_dispatch_depth")
		submit, _ := snap.Gauge("engine_submit_depth")
		if dispatch != 0 || submit != 0 {
			t.Fatalf("%v: pipeline queues not drained: engine_dispatch_depth=%d engine_submit_depth=%d",
				scheme, dispatch, submit)
		}
	}
}
