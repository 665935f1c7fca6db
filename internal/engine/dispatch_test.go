package engine_test

import (
	"slices"
	"testing"

	"pdps/internal/cr"
	"pdps/internal/engine"
	"pdps/internal/lock"
	"pdps/internal/sched"
)

// TestParallelNp1EqualsSingle: with one worker nothing runs beside a
// firing, so no lock conflicts and no abort happens, and Parallel
// dispatches from the agenda exactly what the serial step picks. Under
// every ordered strategy and both schemes it must commit Single's
// instantiation sequence on every footprint program.
func TestParallelNp1EqualsSingle(t *testing.T) {
	strategies := []cr.Ordered{cr.FIFO{}, cr.LEX{}, cr.MEA{}, cr.Priority{}, cr.Specificity{}}
	schemes := []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa}
	for name, p := range footprintPrograms(t) {
		for _, st := range strategies {
			opts := engine.Options{Strategy: st, MaxFirings: 500}
			single, err := engine.NewSingle(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := single.Run()
			if err != nil {
				t.Fatalf("%s/%s: single: %v", name, st.Name(), err)
			}
			want := insts(res)
			for _, scheme := range schemes {
				ctl := sched.NewDet(sched.NewRandom(1))
				ctl.MaxSteps = 1 << 20
				popts := opts
				popts.Np, popts.Sched = 1, ctl
				par, err := engine.NewParallel(p, scheme, popts)
				if err != nil {
					t.Fatal(err)
				}
				var pres engine.Result
				var perr error
				if err := ctl.Run(func() { pres, perr = par.Run() }); err != nil {
					t.Fatalf("%s/%s/%v: schedule: %v", name, st.Name(), scheme, err)
				}
				if perr != nil {
					t.Fatalf("%s/%s/%v: parallel: %v", name, st.Name(), scheme, perr)
				}
				if got := insts(pres); !slices.Equal(got, want) {
					t.Errorf("%s/%s/%v: Parallel at Np=1 committed\n  %v\nSingle committed\n  %v", name, st.Name(), scheme, got, want)
				}
			}
		}
	}
}

// insts returns the committed instantiation keys in commit order.
func insts(res engine.Result) []string {
	var out []string
	for _, e := range res.Log.Commits() {
		out = append(out, e.Inst)
	}
	return out
}
