package pdps_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pdps"
)

// integrationCase describes one testdata program and the expectations
// every engine must satisfy.
type integrationCase struct {
	file     string
	strategy string
	firings  int
	// serialOnly skips the dynamic parallel engines for programs whose
	// outcome depends on the selection strategy: in the multiple-thread
	// mechanism every active production fires, so strategy preferences
	// (e.g. priorities) do not serialise mutually-enabled rules — the
	// behaviour the paper's footnote 1 warns about.
	serialOnly bool
	// check inspects the final working memory.
	check func(t *testing.T, label string, store *pdps.Store)
}

func integrationCases() []integrationCase {
	return []integrationCase{
		{
			file:    "towers.ops",
			firings: 3,
			check: func(t *testing.T, label string, store *pdps.Store) {
				t.Helper()
				if n := len(store.ByClass("move")); n != 0 {
					t.Fatalf("%s: %d moves left", label, n)
				}
				pegs := map[int64]int64{}
				for _, w := range store.ByClass("ring") {
					pegs[w.Attr("id").AsInt()] = w.Attr("peg").AsInt()
				}
				if pegs[1] != 2 || pegs[2] != 2 {
					t.Fatalf("%s: pegs = %v, want both rings on peg 2", label, pegs)
				}
			},
		},
		{
			file:    "routing.ops",
			firings: 4, // start(1) + propagations 1→2, 2→3, 2→4; 5 and 6 unreachable
			check: func(t *testing.T, label string, store *pdps.Store) {
				t.Helper()
				var reached []int64
				for _, w := range store.ByClass("reached") {
					reached = append(reached, w.Attr("node").AsInt())
				}
				sort.Slice(reached, func(i, j int) bool { return reached[i] < reached[j] })
				want := []int64{1, 2, 3, 4}
				if fmt.Sprint(reached) != fmt.Sprint(want) {
					t.Fatalf("%s: reached = %v, want %v", label, reached, want)
				}
			},
		},
		{
			file:       "escalation.ops",
			strategy:   "priority",
			firings:    3,
			serialOnly: true,
			check: func(t *testing.T, label string, store *pdps.Store) {
				t.Helper()
				states := map[int64]string{}
				for _, w := range store.ByClass("alert") {
					states[w.Attr("id").AsInt()] = w.Attr("state").AsString()
				}
				if states[1] != "paged" || states[2] != "queued" || states[3] != "ignored" {
					t.Fatalf("%s: states = %v", label, states)
				}
			},
		},
		{
			file:    "fibonacci.ops",
			firings: 10,
			check: func(t *testing.T, label string, store *pdps.Store) {
				t.Helper()
				fib := store.ByClass("fib")[0]
				if got := fib.Attr("a").AsInt(); got != 55 {
					t.Fatalf("%s: fib(10) = %d, want 55", label, got)
				}
			},
		},
	}
}

func loadTestdata(t *testing.T, name string) pdps.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pdps.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestIntegrationPrograms runs each testdata program under every
// engine, Parallel under both lock schemes, checking firings, final
// working memory, and trace consistency.
func TestIntegrationPrograms(t *testing.T) {
	for _, c := range integrationCases() {
		c := c
		t.Run(c.file, func(t *testing.T) {
			strategyName := c.strategy
			if strategyName == "" {
				strategyName = "lex"
			}
			mkOpts := func() pdps.Options {
				st, err := pdps.NewStrategy(strategyName)
				if err != nil {
					t.Fatal(err)
				}
				return pdps.Options{Strategy: st, Np: 4, Verify: true}
			}
			type build func() (string, pdps.Engine, pdps.Program)
			builders := []build{
				func() (string, pdps.Engine, pdps.Program) {
					p := loadTestdata(t, c.file)
					e, err := pdps.NewSingleEngine(p, mkOpts())
					if err != nil {
						t.Fatal(err)
					}
					return "single", e, p
				},
				func() (string, pdps.Engine, pdps.Program) {
					p := loadTestdata(t, c.file)
					e, err := pdps.NewParallelEngine(p, pdps.Scheme2PL, mkOpts())
					if err != nil {
						t.Fatal(err)
					}
					return "parallel/2pl", e, p
				},
				func() (string, pdps.Engine, pdps.Program) {
					p := loadTestdata(t, c.file)
					e, err := pdps.NewParallelEngine(p, pdps.SchemeRcRaWa, mkOpts())
					if err != nil {
						t.Fatal(err)
					}
					return "parallel/rcrawa", e, p
				},
				func() (string, pdps.Engine, pdps.Program) {
					p := loadTestdata(t, c.file)
					e, err := pdps.NewStaticEngine(p, mkOpts())
					if err != nil {
						t.Fatal(err)
					}
					return "static", e, p
				},
			}
			for _, b := range builders {
				label, eng, prog := b()
				if c.serialOnly && (label == "parallel/2pl" || label == "parallel/rcrawa") {
					continue
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Firings != c.firings {
					t.Fatalf("%s: firings = %d, want %d", label, res.Firings, c.firings)
				}
				if err := pdps.CheckTrace(prog, res.Log.Commits()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c.check(t, label, eng.Store())
			}
		})
	}
}
