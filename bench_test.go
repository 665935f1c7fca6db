// Benchmarks regenerating the paper's tables and figures. Each bench
// corresponds to one artifact (see DESIGN.md's per-experiment index);
// benches that reproduce a speed-up figure report the measured speedup
// as a custom metric so `go test -bench` output carries the paper's
// numbers alongside Go's timing.
package pdps_test

import (
	"strings"
	"testing"
	"time"

	"pdps"
)

// BenchmarkFig32ExecutionGraph regenerates the Section 3.3 example:
// execution-graph construction plus full ES_single enumeration (E1).
// On the reconstructed instance (EXPERIMENTS.md) the graph has 12
// states and 19 completed sequences, and ES_single is a prefix-closed
// set of 52 members.
func BenchmarkFig32ExecutionGraph(b *testing.B) {
	sys := pdps.Fig32System()
	var states, seqs int
	var all [][]string
	for i := 0; i < b.N; i++ {
		g := sys.BuildGraph(16)
		if g.Truncated {
			b.Fatal("execution graph truncated")
		}
		all = sys.Sequences(16, false)
		states, seqs = len(g.Nodes), len(all)
	}
	if done := len(sys.CompletedSequences(16)); states != 12 || done != 19 || seqs != 52 {
		b.Fatalf("states/completed/ES_single = %d/%d/%d, want 12/19/52", states, done, seqs)
	}
	member := make(map[string]bool, len(all))
	for _, seq := range all {
		member[strings.Join(seq, " ")] = true
	}
	for _, seq := range all {
		for n := 1; n < len(seq); n++ {
			if !member[strings.Join(seq[:n], " ")] {
				b.Fatalf("ES_single not prefix-closed: %v lacks prefix %v", seq, seq[:n])
			}
		}
	}
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(float64(seqs), "sequences")
}

// BenchmarkTable41LockCompatibility evaluates the full compatibility
// matrix under both schemes and checks it against Table 4.1 and the
// 2PL matrix (E2). Rows are the held mode, columns the requested one,
// both in Rc, Ra, Wa order.
func BenchmarkTable41LockCompatibility(b *testing.B) {
	modes := []pdps.LockMode{pdps.Rc, pdps.Ra, pdps.Wa}
	want := map[pdps.Scheme][3][3]bool{
		pdps.SchemeRcRaWa: {{true, true, true}, {true, true, false}, {false, false, false}},
		pdps.Scheme2PL:    {{true, true, false}, {true, true, false}, {false, false, false}},
	}
	for i := 0; i < b.N; i++ {
		for scheme, matrix := range want {
			for h, held := range modes {
				for r, req := range modes {
					if got := pdps.LockCompatible(scheme, held, req); got != matrix[h][r] {
						b.Fatalf("%v: held %v, requested %v: compatible = %v, want %v",
							scheme, held, req, got, matrix[h][r])
					}
				}
			}
		}
	}
}

// fig43Program is the Figure 4.3 scenario: pi writes what pj's
// condition reads.
func fig43Program() pdps.Program {
	return pdps.MustParse(`
(p pi
  (q ^hot true)
  -->
  (modify 1 ^hot false))
(p pj
  (q ^hot true)
  (out ^n <n>)
  -->
  (modify 2 ^n (+ <n> 1)))
(wme q ^hot true)
(wme out ^n 0)
`)
}

// BenchmarkFig43CommitAbortProtocol runs the writer-commits-first
// interleaving: pj becomes the Rc victim (E3).
func BenchmarkFig43CommitAbortProtocol(b *testing.B) {
	aborts := 0
	for i := 0; i < b.N; i++ {
		prog := fig43Program()
		eng, err := pdps.NewParallelEngine(prog, pdps.SchemeRcRaWa, pdps.Options{
			Np:        2,
			CondDelay: map[string]time.Duration{"pj": 2 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		aborts += res.Aborts
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(aborts)/float64(b.N), "aborts/run")
}

// BenchmarkFig44CircularConflict runs the circular Rc/Wa dependency
// under both schemes; exactly one production commits (E4).
func BenchmarkFig44CircularConflict(b *testing.B) {
	src := `
(p pi
  (q ^hot true)
  (r ^hot true)
  -->
  (modify 2 ^hot false))
(p pj
  (r ^hot true)
  (q ^hot true)
  -->
  (modify 2 ^hot false))
(wme q ^hot true)
(wme r ^hot true)
`
	for _, scheme := range []pdps.Scheme{pdps.Scheme2PL, pdps.SchemeRcRaWa} {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog := pdps.MustParse(src)
				eng, err := pdps.NewParallelEngine(prog, scheme, pdps.Options{
					Np:        2,
					CondDelay: map[string]time.Duration{"pi": time.Millisecond, "pj": time.Millisecond},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Firings != 1 {
					b.Fatalf("firings = %d, want 1", res.Firings)
				}
			}
		})
	}
}

// benchFig runs a Section 5 figure on the simulator and reports the
// paper's metrics (E5–E8).
func benchFig(b *testing.B, sys *pdps.System, np, wantSingle, wantMulti int) {
	b.Helper()
	var res pdps.SimResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pdps.Simulate(sys, pdps.SimConfig{Np: np})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.TSingle != wantSingle || res.TMulti != wantMulti {
		b.Fatalf("T_single/T_multi = %d/%d, want %d/%d", res.TSingle, res.TMulti, wantSingle, wantMulti)
	}
	b.ReportMetric(float64(res.TSingle), "T_single")
	b.ReportMetric(float64(res.TMulti), "T_multi")
	b.ReportMetric(res.Speedup(), "speedup")
}

// BenchmarkFig51BaseSpeedup reproduces Figure 5.1 (speedup 2.25).
func BenchmarkFig51BaseSpeedup(b *testing.B) {
	benchFig(b, pdps.Fig51System(), 4, 9, 4)
}

// BenchmarkFig52ConflictDegree reproduces Figure 5.2 (speedup 1.67).
func BenchmarkFig52ConflictDegree(b *testing.B) {
	benchFig(b, pdps.Fig52System(), 4, 5, 3)
}

// BenchmarkFig53ExecTimeVariation reproduces Figure 5.3 (speedup 2.5).
func BenchmarkFig53ExecTimeVariation(b *testing.B) {
	benchFig(b, pdps.Fig53System(), 4, 10, 4)
}

// BenchmarkFig54ProcessorVariation reproduces Figure 5.4 (speedup 1.5).
func BenchmarkFig54ProcessorVariation(b *testing.B) {
	benchFig(b, pdps.Fig51System(), pdps.Fig54Np(), 9, 6)
}

// BenchmarkExample51Uniprocessor evaluates the uniprocessor inequality
// of Example 5.1 across abort fractions (E9).
func BenchmarkExample51Uniprocessor(b *testing.B) {
	sys := pdps.Fig51System()
	worst := 0.0
	for i := 0; i < b.N; i++ {
		res, err := pdps.Simulate(sys, pdps.SimConfig{Np: 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 0.99} {
			tm := res.UniprocessorMultiTime(f)
			if tm < float64(res.TSingle) {
				b.Fatalf("f=%v: multi-thread beat single-thread on a uniprocessor", f)
			}
			if tm > worst {
				worst = tm
			}
		}
	}
	b.ReportMetric(worst, "worst_T_multi_uni")
}

// BenchmarkTheorem1StaticConsistency runs randomized programs on the
// static engine and validates every trace (E10).
func BenchmarkTheorem1StaticConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog := pdps.RandomProgram(int64(i), 4, 16)
		eng, err := pdps.NewStaticEngine(prog, pdps.Options{Np: 4})
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem2DynamicConsistency runs the high-conflict workload
// under both lock schemes and validates every trace (E11).
func BenchmarkTheorem2DynamicConsistency(b *testing.B) {
	for _, scheme := range []pdps.Scheme{pdps.Scheme2PL, pdps.SchemeRcRaWa} {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog := pdps.SharedCounter(4, 3)
				eng, err := pdps.NewParallelEngine(prog, scheme, pdps.Options{Np: 4})
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Firings != 12 {
					b.Fatalf("firings = %d, want 12", res.Firings)
				}
				if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLockSchemeAblation times the engines on the same pipeline
// workload with a fixed per-firing action cost, the Section 4.3
// claim that liberal Rc locks buy wall-clock time (E12).
func BenchmarkLockSchemeAblation(b *testing.B) {
	const parts, stages, np = 8, 3, 8
	cost := 500 * time.Microsecond
	delays := func(p pdps.Program) map[string]time.Duration {
		d := make(map[string]time.Duration)
		for _, r := range p.Rules {
			d[r.Name] = cost
		}
		return d
	}
	run := func(b *testing.B, mk func(pdps.Program) (pdps.Engine, error)) {
		for i := 0; i < b.N; i++ {
			prog := pdps.Pipeline(parts, stages)
			eng, err := mk(prog)
			if err != nil {
				b.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Firings != parts*stages {
				b.Fatalf("firings = %d", res.Firings)
			}
		}
	}
	b.Run("single", func(b *testing.B) {
		run(b, func(p pdps.Program) (pdps.Engine, error) {
			return pdps.NewSingleEngine(p, pdps.Options{RuleDelay: delays(p)})
		})
	})
	b.Run("parallel-2pl", func(b *testing.B) {
		run(b, func(p pdps.Program) (pdps.Engine, error) {
			return pdps.NewParallelEngine(p, pdps.Scheme2PL, pdps.Options{Np: np, RuleDelay: delays(p)})
		})
	})
	b.Run("parallel-rcrawa", func(b *testing.B) {
		run(b, func(p pdps.Program) (pdps.Engine, error) {
			return pdps.NewParallelEngine(p, pdps.SchemeRcRaWa, pdps.Options{Np: np, RuleDelay: delays(p)})
		})
	})
	b.Run("static", func(b *testing.B) {
		run(b, func(p pdps.Program) (pdps.Engine, error) {
			return pdps.NewStaticEngine(p, pdps.Options{Np: np, RuleDelay: delays(p)})
		})
	})
}

// BenchmarkSpeedupFactorSweeps sweeps two Section 5 factors on the
// simulator — degree of conflict over 12 productions at Np=12, and Np
// over 12 independent ones — and checks each point's T_single and
// T_multi against the E13 tables (EXPERIMENTS.md).
func BenchmarkSpeedupFactorSweeps(b *testing.B) {
	points := []struct {
		name                  string
		degree, np            int
		wantSingle, wantMulti int
	}{
		{"conflict=0", 0, 12, 48, 5},
		{"conflict=2", 2, 12, 12, 3},
		{"conflict=8", 8, 12, 6, 3},
		{"np=1", 0, 1, 48, 48},
		{"np=4", 0, 4, 48, 14},
		{"np=12", 0, 12, 48, 5},
	}
	for _, p := range points {
		b.Run(p.name, func(b *testing.B) {
			sys := pdps.ConflictChain(12, p.degree, 3)
			var res pdps.SimResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = pdps.Simulate(sys, pdps.SimConfig{Np: p.np})
				if err != nil {
					b.Fatal(err)
				}
			}
			if res.TSingle != p.wantSingle || res.TMulti != p.wantMulti {
				b.Fatalf("T_single/T_multi = %d/%d, want %d/%d", res.TSingle, res.TMulti, p.wantSingle, p.wantMulti)
			}
			b.ReportMetric(res.Speedup(), "speedup")
		})
	}
}
