package detsched

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/lock"
	"pdps/internal/sched"
)

// fig43Program is the two-production scenario of Figure 4.3: pi writes
// q; pj only reads q (through its condition) and writes elsewhere.
func fig43Program() engine.Program {
	return lang.MustParse(`
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

// writerReadersProgram is the Section 4.3 motivation: readers evaluate
// long conditions over the shared tuple q while a short writer wants
// to update q. Each reader writes only its own job tuple.
func writerReadersProgram(readers int) engine.Program {
	var b strings.Builder
	b.WriteString("(p writer (q ^hot true) --> (modify 1 ^hot false))\n")
	for i := 0; i < readers; i++ {
		fmt.Fprintf(&b, "(p reader%d (q ^hot true) (job ^id %d ^done false) --> (modify 2 ^done true))\n", i, i)
		fmt.Fprintf(&b, "(wme job ^id %d ^done false)\n", i)
	}
	b.WriteString("(wme q ^hot true)\n")
	return lang.MustParse(b.String())
}

// TestSection43VirtualTime runs the Section 4.3 commit/abort protocol
// on the virtual clock, where RuleDelay and CondDelay fix which
// production reaches its commit point first independently of the
// schedule, and asserts the exact commit sequence and abort count on
// every seed:
//
//   - Figure 4.3: both productions take Rc(q) at t=0 and pj evaluates
//     its condition for 5 ms, so pi's Wa(q) at t=1 ms is granted while
//     pj holds Rc(q) — the situation the figure draws. (Without pj's
//     condition window the two race for q at t=0: when pi's Wa comes
//     first, pj blocks on Rc and is skipped as stale; EXPERIMENTS.md.)
//   - (a) the reader pj commits first, so both commit and the serial
//     order is pj, pi.
//   - (b) the writer pi commits first, so pj is forced to abort (rule
//     (ii)) and its condition no longer holds.
//   - The writer behind four long condition-readers: under 2PL its Wa
//     waits out every reader's read lock and it commits last; under
//     Rc/Ra/Wa it is granted at once, commits alone, and all four
//     readers become commit-time Rc victims.
func TestSection43VirtualTime(t *testing.T) {
	const ms = time.Millisecond
	readers := map[string]time.Duration{"writer": 5 * ms}
	for i := 0; i < 4; i++ {
		readers[fmt.Sprintf("reader%d", i)] = 40 * ms
	}
	fig43Cond := map[string]time.Duration{"pi": 1 * ms, "pj": 5 * ms}
	cases := []struct {
		name     string
		prog     engine.Program
		scheme   lock.Scheme
		np       int
		rule     map[string]time.Duration
		cond     map[string]time.Duration
		commits  []string // nil: nCommits commits in any order ending with last
		nCommits int
		last     string
		aborts   int
	}{
		{name: "fig4.3a", prog: fig43Program(), scheme: lock.SchemeRcRaWa, np: 2,
			rule: map[string]time.Duration{"pi": 80 * ms, "pj": 1 * ms}, cond: fig43Cond,
			commits: []string{"pj", "pi"}, aborts: 0},
		{name: "fig4.3b", prog: fig43Program(), scheme: lock.SchemeRcRaWa, np: 2,
			rule: map[string]time.Duration{"pi": 1 * ms, "pj": 80 * ms}, cond: fig43Cond,
			commits: []string{"pi"}, aborts: 1},
		{name: "writer-behind-readers/2pl", prog: writerReadersProgram(4), scheme: lock.Scheme2PL, np: 5,
			cond: readers, nCommits: 5, last: "writer", aborts: 0},
		{name: "writer-behind-readers/rcrawa", prog: writerReadersProgram(4), scheme: lock.SchemeRcRaWa, np: 5,
			cond: readers, commits: []string{"writer"}, aborts: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 16; seed++ {
				cfg := Config{Scheme: tc.scheme, Np: tc.np, RuleDelay: tc.rule, CondDelay: tc.cond}
				out := Run(tc.prog, cfg, sched.NewRandom(seed))
				if err := Check(tc.prog, out); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				var got []string
				for _, c := range out.Commits() {
					got = append(got, c.Rule)
				}
				if tc.commits != nil && !reflect.DeepEqual(got, tc.commits) {
					t.Errorf("seed %d: commits %v, want %v", seed, got, tc.commits)
				}
				if tc.commits == nil && (len(got) != tc.nCommits || got[len(got)-1] != tc.last) {
					t.Errorf("seed %d: commits %v, want %d ending with %s", seed, got, tc.nCommits, tc.last)
				}
				if out.Result.Aborts != tc.aborts {
					t.Errorf("seed %d: aborts = %d, want %d", seed, out.Result.Aborts, tc.aborts)
				}
			}
		})
	}
}
