// Package cr implements the select phase of the production-system
// cycle: conflict-resolution strategies that choose the dominant
// production from the conflict set. As the paper notes (Section 3.2),
// strategies like OPS5's LEX and MEA are heuristics that favour some
// execution sequences over others but never rule any sequence out, so
// they are orthogonal to the consistency machinery and pluggable here.
package cr

import (
	"fmt"

	"pdps/internal/match"
)

// Strategy is a conflict-resolution strategy: a dominance relation
// that totally orders Ranks (instantiations with equal keys aside,
// which matched the same data), and Select, which returns the order's
// maximum. An engine keeps its candidates ordered by Dominates — in a
// heap — and picks the top instead of scanning the whole conflict set
// each cycle.
type Strategy interface {
	// Name identifies the strategy.
	Name() string
	// Select returns the chosen instantiation; ins is non-empty.
	Select(ins []*match.Instantiation) *match.Instantiation
	// Dominates reports whether b dominates a.
	Dominates(b, a *Rank) bool
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

// Dominates reports whether b is older than a.
func (FIFO) Dominates(b, a *Rank) bool { return dominates(byFIFO, b, a) }

// LEX is OPS5's LEX strategy: order instantiations by their time tags
// sorted in descending order, compared lexicographically (most recent
// first); ties broken by specificity (number of attribute tests), then
// by key for determinism.
type LEX struct{}

// Name returns "lex".
func (LEX) Name() string { return "lex" }

// Select returns the dominant instantiation under LEX.
func (LEX) Select(ins []*match.Instantiation) *match.Instantiation { return pick(ins, byLEX) }

// Dominates reports whether b dominates a under LEX.
func (LEX) Dominates(b, a *Rank) bool { return dominates(byLEX, b, a) }

// MEA is OPS5's MEA strategy: compare the recency of the WME matching
// the first condition element (means-ends analysis), then fall back to
// LEX ordering.
type MEA struct{}

// Name returns "mea".
func (MEA) Name() string { return "mea" }

// Select returns the dominant instantiation under MEA.
func (MEA) Select(ins []*match.Instantiation) *match.Instantiation { return pick(ins, byMEA) }

// Dominates reports whether b dominates a under MEA.
func (MEA) Dominates(b, a *Rank) bool { return dominates(byMEA, b, a) }

// Priority picks the instantiation of the rule with the highest static
// priority, ties broken by LEX.
type Priority struct{}

// Name returns "priority".
func (Priority) Name() string { return "priority" }

// Select returns the highest-priority instantiation.
func (Priority) Select(ins []*match.Instantiation) *match.Instantiation {
	return pick(ins, byPriority)
}

// Dominates reports whether b dominates a under Priority.
func (Priority) Dominates(b, a *Rank) bool { return dominates(byPriority, b, a) }

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

// Dominates reports whether b dominates a under Specificity.
func (Specificity) Dominates(b, a *Rank) bool { return dominates(bySpecificity, b, a) }

// order names the dominance relation of one recency-based strategy.
type order int

const (
	byFIFO order = iota
	byLEX
	byMEA
	byPriority
	bySpecificity
)

// Rank is an instantiation's order key: everything the strategies
// compare, derived once by Set — the descending recency
// vector, the first CE's time tag, the rule's priority and specificity,
// and (through In) the key. The recency vector lives in the Rank itself
// when the instantiation matched at most eight WMEs, so a Rank on the
// stack costs no allocation and one in an agenda entry is a single
// 128-byte object.
type Rank struct {
	// In is the ranked instantiation.
	In *match.Instantiation

	first       uint64 // time tag of the WME matching the first CE
	priority    int
	long        []uint64  // descending recency vector, when tags is too short
	tags        [8]uint64 // descending recency vector, when it fits
	n           int32     // length of the recency vector in tags
	specificity int32
}

// Set ranks in, overwriting r.
func (r *Rank) Set(in *match.Instantiation) {
	*r = Rank{In: in, first: firstTag(in), priority: in.Rule.Priority,
		specificity: int32(specificity(in.Rule))}
	if len(in.WMEs) <= len(r.tags) {
		r.n = int32(len(in.AppendTimeTags(r.tags[:0])))
	} else {
		r.long = in.AppendTimeTags(nil)
	}
}

// Key returns the ranked instantiation's key.
func (r *Rank) Key() string { return r.In.Key() }

// recency returns the descending recency vector.
func (r *Rank) recency() []uint64 {
	if r.long != nil {
		return r.long
	}
	return r.tags[:r.n]
}

// pick returns the instantiation that dominates ins under o, scanning
// once; of instantiations with equal keys it keeps the first. The best
// and the current candidate are ranked into two stack Ranks that swap
// roles, so with at most eight matched WMEs per instantiation a pick
// allocates nothing. It compares exactly as Dominates does, so an
// engine ordering by Dominates picks what Select picks.
func pick(ins []*match.Instantiation, o order) *match.Instantiation {
	var r1, r2 Rank
	best, cand := &r1, &r2
	best.Set(ins[0])
	for _, in := range ins[1:] {
		cand.Set(in)
		if dominates(o, cand, best) {
			best, cand = cand, best
		}
	}
	return best.In
}

// dominates reports whether b dominates a under o.
func dominates(o order, b, a *Rank) bool {
	switch o {
	case byFIFO:
		c := compareTags(b.recency(), a.recency())
		return c < 0 || (c == 0 && b.Key() < a.Key())
	case byMEA:
		if a.first != b.first {
			return a.first < b.first
		}
	case byPriority:
		if a.priority != b.priority {
			return b.priority > a.priority
		}
	case bySpecificity:
		if a.specificity != b.specificity {
			return b.specificity > a.specificity
		}
	}
	return lexLess(a, b)
}

// lexLess reports whether b dominates a under LEX.
func lexLess(a, b *Rank) bool {
	if c := compareTags(a.recency(), b.recency()); c != 0 {
		return c < 0
	}
	if a.specificity != b.specificity {
		return a.specificity < b.specificity
	}
	return a.Key() > b.Key()
}

func firstTag(in *match.Instantiation) uint64 {
	if len(in.WMEs) == 0 {
		return 0
	}
	return in.WMEs[0].TimeTag
}

// Random ranks instantiations by a seeded hash of their keys: a fixed
// pseudo-random permutation per seed, ties broken by key, so the same
// seed gives the same picks in every process. The property tests use
// it to reach execution sequences no recency order produces.
type Random struct{ seed uint64 }

// NewRandom returns a Random strategy with the given seed.
func NewRandom(seed int64) Random { return Random{seed: uint64(seed)} }

// Name returns "random".
func (Random) Name() string { return "random" }

// Select returns the instantiation whose key ranks first under the
// seed.
func (r Random) Select(ins []*match.Instantiation) *match.Instantiation {
	best := ins[0]
	for _, in := range ins[1:] {
		if r.Dominates(&Rank{In: in}, &Rank{In: best}) {
			best = in
		}
	}
	return best
}

// Dominates reports whether b's key ranks before a's under the seed.
func (r Random) Dominates(b, a *Rank) bool {
	hb, ha := r.hash(b.Key()), r.hash(a.Key())
	return hb < ha || (hb == ha && b.Key() < a.Key())
}

// hash is FNV-1a over the key's bytes from a seed-dependent start.
// Unlike maphash it is fixed across processes.
func (r Random) hash(key string) uint64 {
	const prime = 1099511628211
	h := (14695981039346656037 ^ r.seed) * prime
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	return h
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
