package engine_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/lock"
	"pdps/internal/sched"
	"pdps/internal/workload"
)

// TestParallelNp1EqualsSingle: with one worker nothing runs beside a
// firing, so no lock conflicts and no abort happens, and Parallel
// dispatches from the agenda exactly what the serial step picks. Under
// every strategy and both schemes it must commit Single's
// instantiation sequence on every footprint program.
func TestParallelNp1EqualsSingle(t *testing.T) {
	schemes := []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa}
	for name, p := range footprintPrograms(t) {
		for _, st := range orderedStrategies {
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

// TestParallelFiringAllocs holds a free-running Parallel firing on
// workload.Independent — no lock conflict, so every firing takes the
// plain dispatch, fire, commit path — to an allocation ceiling. Run's
// allocations are divided by its firings; the best of three runs is
// taken, so a stray allocation elsewhere in the process does not count.
func TestParallelFiringAllocs(t *testing.T) {
	if engine.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 19
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		e, err := engine.NewParallel(workload.Independent(32, 16), lock.SchemeRcRaWa, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := e.Run()
		runtime.ReadMemStats(&after)
		if err != nil || res.Firings != 32*16 {
			t.Fatalf("fired %d, err %v; want %d", res.Firings, err, 32*16)
		}
		best = min(best, float64(after.Mallocs-before.Mallocs)/float64(res.Firings))
	}
	t.Logf("%.2f allocations per firing", best)
	if best > ceiling {
		t.Fatalf("a firing allocates %.2f times, want at most %d", best, ceiling)
	}
}
