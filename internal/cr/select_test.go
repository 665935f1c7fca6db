package cr

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// recencyStrategies are the strategies that compare recency vectors.
var recencyStrategies = []Strategy{FIFO{}, LEX{}, MEA{}, Priority{}, Specificity{}}

// randomConflictSet builds n instantiations of up to maxWMEs matched
// WMEs each. Tags come from a small pool, so vectors tie, share
// prefixes and first tags, and differ in length; rules repeat, so
// priority and specificity tie too.
func randomConflictSet(rng *rand.Rand, n, maxWMEs int) []*match.Instantiation {
	rules := make([]*match.Rule, 4)
	for i := range rules {
		conds := make([]match.Condition, 1+rng.Intn(2))
		for j := range conds {
			conds[j] = match.Condition{Class: "c", Tests: make([]match.AttrTest, rng.Intn(3))}
		}
		rules[i] = &match.Rule{Name: fmt.Sprintf("r%d", i), Priority: rng.Intn(2), Conditions: conds}
	}
	pool := make([]*wm.WME, 6)
	for i := range pool {
		pool[i] = &wm.WME{ID: int64(i + 1), TimeTag: uint64(rng.Intn(4) + 1), Class: "c"}
	}
	ins := make([]*match.Instantiation, n)
	for i := range ins {
		wmes := make([]*wm.WME, rng.Intn(maxWMEs+1))
		for j := range wmes {
			wmes[j] = pool[rng.Intn(len(pool))]
		}
		ins[i] = &match.Instantiation{Rule: rules[rng.Intn(len(rules))], WMEs: wmes}
	}
	return ins
}

// TestSelectAllocatesNothing: with at most eight matched WMEs per
// instantiation, Select over a 200-instantiation conflict set makes no
// allocation — the recency vectors live in stack buffers.
func TestSelectAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	ins := randomConflictSet(rand.New(rand.NewSource(1)), 200, 8)
	for _, st := range append(recencyStrategies, NewRandom(1)) {
		if n := testing.AllocsPerRun(20, func() { st.Select(ins) }); n != 0 {
			t.Errorf("%s: %.1f allocs per Select over %d instantiations, want 0", st.Name(), n, len(ins))
		}
	}
}

// oracleTags is the recency vector as the strategies first built it:
// a fresh slice sorted descending with sort.Slice.
func oracleTags(in *match.Instantiation) []uint64 {
	tags := make([]uint64, len(in.WMEs))
	for i, w := range in.WMEs {
		tags[i] = w.TimeTag
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] > tags[j] })
	return tags
}

// oracleLexLess reports whether b dominates a under LEX, rebuilding
// both vectors on every comparison.
func oracleLexLess(a, b *match.Instantiation) bool {
	if c := compareTags(oracleTags(a), oracleTags(b)); c != 0 {
		return c < 0
	}
	sa, sb := specificity(a.Rule), specificity(b.Rule)
	if sa != sb {
		return sa < sb
	}
	return a.Key() > b.Key()
}

// oracleSelect is the reference linear scan of each strategy, with
// the comparators written out independently of pick and dominates.
func oracleSelect(name string, ins []*match.Instantiation) *match.Instantiation {
	best := ins[0]
	for _, in := range ins[1:] {
		var wins bool
		switch name {
		case "fifo":
			c := compareTags(oracleTags(in), oracleTags(best))
			wins = c < 0 || (c == 0 && in.Key() < best.Key())
		case "lex":
			wins = oracleLexLess(best, in)
		case "mea":
			if ta, tb := firstTag(best), firstTag(in); ta != tb {
				wins = ta < tb
			} else {
				wins = oracleLexLess(best, in)
			}
		case "priority":
			wins = in.Rule.Priority > best.Rule.Priority ||
				(in.Rule.Priority == best.Rule.Priority && oracleLexLess(best, in))
		case "specificity":
			sb, si := specificity(best.Rule), specificity(in.Rule)
			wins = si > sb || (si == sb && oracleLexLess(best, in))
		}
		if wins {
			best = in
		}
	}
	return best
}

// TestSelectMatchesOracle: over random conflict sets — tied vectors,
// unequal lengths, shared first tags, and vectors longer than the stack
// buffers — every recency strategy picks the same instantiation as the
// reference comparator.
func TestSelectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		ins := randomConflictSet(rng, 1+rng.Intn(40), 1+rng.Intn(11))
		for _, st := range recencyStrategies {
			if got, want := st.Select(ins), oracleSelect(st.Name(), ins); got != want {
				t.Fatalf("trial %d %s: selected %s %v, oracle %s %v", trial, st.Name(),
					got.Key(), oracleTags(got), want.Key(), oracleTags(want))
			}
		}
	}
}
