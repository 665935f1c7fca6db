// Package cr implements the select phase of the production-system
// cycle: conflict-resolution strategies that choose the dominant
// production from the conflict set. As the paper notes (Section 3.2),
// strategies like OPS5's LEX and MEA are heuristics that favour some
// execution sequences over others but never rule any sequence out, so
// they are orthogonal to the consistency machinery and pluggable here.
package cr

import (
	"fmt"
	"math/rand"

	"pdps/internal/match"
)

// Strategy selects the dominant instantiation from a non-empty
// conflict set. Implementations must be deterministic given their own
// state (Random is deterministic per seed).
type Strategy interface {
	// Name identifies the strategy.
	Name() string
	// Select returns the chosen instantiation; ins is non-empty.
	Select(ins []*match.Instantiation) *match.Instantiation
}

// New returns the strategy with the given name: "fifo", "lex", "mea",
// "priority", "specificity", or "random" (seeded with 1).
func New(name string) (Strategy, error) {
	switch name {
	case "fifo":
		return FIFO{}, nil
	case "lex":
		return LEX{}, nil
	case "mea":
		return MEA{}, nil
	case "priority":
		return Priority{}, nil
	case "specificity":
		return Specificity{}, nil
	case "random":
		return NewRandom(1), nil
	}
	return nil, fmt.Errorf("cr: unknown strategy %q", name)
}

// FIFO picks the instantiation whose matched WMEs are oldest (smallest
// recency, ties broken by key), giving queue-like behaviour.
type FIFO struct{}

// Name returns "fifo".
func (FIFO) Name() string { return "fifo" }

// Select returns the oldest instantiation.
func (FIFO) Select(ins []*match.Instantiation) *match.Instantiation { return pick(ins, byFIFO) }

// LEX is OPS5's LEX strategy: order instantiations by their time tags
// sorted in descending order, compared lexicographically (most recent
// first); ties broken by specificity (number of attribute tests), then
// by key for determinism.
type LEX struct{}

// Name returns "lex".
func (LEX) Name() string { return "lex" }

// Select returns the dominant instantiation under LEX.
func (LEX) Select(ins []*match.Instantiation) *match.Instantiation { return pick(ins, byLEX) }

// MEA is OPS5's MEA strategy: compare the recency of the WME matching
// the first condition element (means-ends analysis), then fall back to
// LEX ordering.
type MEA struct{}

// Name returns "mea".
func (MEA) Name() string { return "mea" }

// Select returns the dominant instantiation under MEA.
func (MEA) Select(ins []*match.Instantiation) *match.Instantiation { return pick(ins, byMEA) }

// Priority picks the instantiation of the rule with the highest static
// priority, ties broken by LEX.
type Priority struct{}

// Name returns "priority".
func (Priority) Name() string { return "priority" }

// Select returns the highest-priority instantiation.
func (Priority) Select(ins []*match.Instantiation) *match.Instantiation {
	return pick(ins, byPriority)
}

// Specificity prefers the instantiation of the rule with the most
// condition-element tests (the most specific knowledge), falling back
// to LEX — the specificity component of OPS5's ordering, exposed as a
// standalone strategy.
type Specificity struct{}

// Name returns "specificity".
func (Specificity) Name() string { return "specificity" }

// Select returns the most specific instantiation.
func (Specificity) Select(ins []*match.Instantiation) *match.Instantiation {
	return pick(ins, bySpecificity)
}

// order names the dominance relation of one recency-based strategy.
type order int

const (
	byFIFO order = iota
	byLEX
	byMEA
	byPriority
	bySpecificity
)

// pick returns the instantiation that dominates ins under o, scanning
// once. Each instantiation's recency vector is built once, into one of
// two stack buffers that the best and the current candidate swap, so
// with at most eight matched WMEs per instantiation a pick allocates
// nothing.
func pick(ins []*match.Instantiation, o order) *match.Instantiation {
	var bestBuf, candBuf [8]uint64
	best := ins[0]
	bt, ct := best.AppendTimeTags(bestBuf[:0]), candBuf[:0]
	for _, in := range ins[1:] {
		ct = in.AppendTimeTags(ct[:0])
		if dominates(o, in, ct, best, bt) {
			best, bt, ct = in, ct, bt
		}
	}
	return best
}

// dominates reports whether b, with recency vector tb, dominates a,
// with recency vector ta, under o.
func dominates(o order, b *match.Instantiation, tb []uint64, a *match.Instantiation, ta []uint64) bool {
	switch o {
	case byFIFO:
		c := compareTags(tb, ta)
		return c < 0 || (c == 0 && b.Key() < a.Key())
	case byMEA:
		if fa, fb := firstTag(a), firstTag(b); fa != fb {
			return fa < fb
		}
	case byPriority:
		if pa, pb := a.Rule.Priority, b.Rule.Priority; pa != pb {
			return pb > pa
		}
	case bySpecificity:
		if sa, sb := specificity(a.Rule), specificity(b.Rule); sa != sb {
			return sb > sa
		}
	}
	return lexLess(a, ta, b, tb)
}

// lexLess reports whether b dominates a under LEX.
func lexLess(a *match.Instantiation, ta []uint64, b *match.Instantiation, tb []uint64) bool {
	if c := compareTags(ta, tb); c != 0 {
		return c < 0
	}
	sa, sb := specificity(a.Rule), specificity(b.Rule)
	if sa != sb {
		return sa < sb
	}
	return a.Key() > b.Key()
}

func firstTag(in *match.Instantiation) uint64 {
	if len(in.WMEs) == 0 {
		return 0
	}
	return in.WMEs[0].TimeTag
}

// Random selects uniformly at random with a seeded source, so runs are
// reproducible. It is the strategy used by the semantic-consistency
// property tests to explore many valid execution sequences.
type Random struct{ rng *rand.Rand }

// NewRandom returns a Random strategy with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name returns "random".
func (r *Random) Name() string { return "random" }

// Select returns a uniformly random instantiation.
func (r *Random) Select(ins []*match.Instantiation) *match.Instantiation {
	return ins[r.rng.Intn(len(ins))]
}

func specificity(r *match.Rule) int {
	n := 0
	for _, c := range r.Conditions {
		n += 1 + len(c.Tests)
	}
	return n
}

// compareTags compares two descending time-tag vectors
// lexicographically; a missing element is older than any present one.
func compareTags(a, b []uint64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
