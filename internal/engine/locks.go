package engine

import (
	"cmp"
	"slices"

	"pdps/internal/lock"
	"pdps/internal/match"
)

// rcResources returns the Rc-lock plan for condition evaluation
// (Figure 4.1/4.2, phase 1): the condition reads of the instantiation's
// footprint — a tuple-level Rc on every matched WME, and a
// relation-level Rc for every negated condition element, the paper's
// lock escalation for conditions that depend on the absence of tuples.
// The plan is built in a stack buffer (a longer one spills to the
// heap), sorted for deterministic acquisition order and copied into
// dst[:0] — the flight's buffer, so a recycled flight reuses the
// capacity of the firings before it and a new one allocates once.
func rcResources(dst []lock.Resource, in *match.Instantiation) []lock.Resource {
	var buf [16]lock.Resource
	plan := buf[:0]
	in.Footprint(func(t match.Touch) {
		if t.Mode == match.Read {
			plan = append(plan, lock.Resource{Class: t.Class, ID: t.ID})
		}
	})
	return append(dst[:0], dedupeResources(plan)...)
}

// rhsLock pairs a resource with the mode the RHS needs on it.
type rhsLock struct {
	res  lock.Resource
	mode lock.Mode
}

// rhsLocks returns the Ra/Wa-lock plan acquired at the start of action
// execution (Section 4.3), from the instantiation's footprint: Wa on
// the matched WMEs targeted by modify or remove, Ra on matched WMEs the
// action re-reads (Rule.ActionReads), and a relation-level Wa for every
// class the action makes tuples in (creation can falsify negated
// conditions anywhere in the class). A resource needed in both modes
// gets Wa. The plan is built, sorted and copied into dst[:0] like
// rcResources'.
func rhsLocks(dst []rhsLock, in *match.Instantiation) []rhsLock {
	var buf [16]rhsLock
	plan := buf[:0]
	in.Footprint(func(t match.Touch) {
		res := lock.Resource{Class: t.Class, ID: t.ID}
		switch t.Mode {
		case match.ActionRead:
			plan = append(plan, rhsLock{res, lock.Ra})
		case match.Write:
			plan = append(plan, rhsLock{res, lock.Wa})
		}
	})
	// Strongest mode first within a resource, so compacting keeps it.
	slices.SortFunc(plan, func(a, b rhsLock) int {
		return cmp.Or(compareResources(a.res, b.res), cmp.Compare(b.mode, a.mode))
	})
	plan = slices.CompactFunc(plan, func(a, b rhsLock) bool { return a.res == b.res })
	return append(dst[:0], plan...)
}

// dedupeResources sorts the plan and compacts duplicates in place —
// no scratch map, no allocation beyond the caller's slice (the old
// per-call map showed up in lock-heavy memory profiles).
func dedupeResources(rs []lock.Resource) []lock.Resource {
	slices.SortFunc(rs, compareResources)
	return slices.Compact(rs)
}

// compareResources orders resources by class, then ID, so a relation
// (ID 0) precedes its tuples.
func compareResources(a, b lock.Resource) int {
	return cmp.Or(cmp.Compare(a.Class, b.Class), cmp.Compare(a.ID, b.ID))
}
