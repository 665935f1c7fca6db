package engine

import (
	"sort"

	"pdps/internal/lock"
	"pdps/internal/match"
)

// rcResources returns the Rc-lock plan for condition evaluation
// (Figure 4.1/4.2, phase 1): a tuple-level Rc on every matched WME,
// and a relation-level Rc for every negated condition element — the
// paper's lock escalation for conditions that depend on the absence of
// tuples.
func rcResources(in *match.Instantiation) []lock.Resource {
	var out []lock.Resource
	for _, w := range in.WMEs {
		out = append(out, lock.Resource{Class: w.Class, ID: w.ID})
	}
	for _, c := range in.Rule.Conditions {
		if c.Negated {
			out = append(out, lock.Relation(c.Class))
		}
	}
	return dedupeResources(out)
}

// rhsLock pairs a resource with the mode the RHS needs on it.
type rhsLock struct {
	res  lock.Resource
	mode lock.Mode
}

// rhsLocks returns the Ra/Wa-lock plan acquired at the start of action
// execution (Section 4.3): Wa on the matched WMEs targeted by modify or
// remove, Ra on matched WMEs the action re-reads (Rule.ActionReads),
// and a relation-level Wa for every class the action makes tuples in
// (creation can falsify negated conditions anywhere in the class).
// The plan is sorted for deterministic acquisition order.
func rhsLocks(in *match.Instantiation) []rhsLock {
	modes := make(map[lock.Resource]lock.Mode)
	raise := func(res lock.Resource, m lock.Mode) {
		if cur, ok := modes[res]; !ok || m > cur {
			modes[res] = m
		}
	}
	for _, ce := range in.Rule.ActionReads {
		w := in.WMEs[ce]
		raise(lock.Resource{Class: w.Class, ID: w.ID}, lock.Ra)
	}
	for _, a := range in.Rule.Actions {
		switch a.Kind {
		case match.ActMake:
			raise(lock.Relation(a.Class), lock.Wa)
		case match.ActModify, match.ActRemove:
			w := in.WMEs[a.CE]
			raise(lock.Resource{Class: w.Class, ID: w.ID}, lock.Wa)
		}
	}
	plan := make([]rhsLock, 0, len(modes))
	for res, m := range modes {
		plan = append(plan, rhsLock{res, m})
	}
	sort.Slice(plan, func(i, j int) bool {
		a, b := plan[i].res, plan[j].res
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.ID < b.ID
	})
	return plan
}

// dedupeResources sorts the plan and compacts duplicates in place —
// no scratch map, no allocation beyond the caller's slice (the old
// per-call map showed up in lock-heavy memory profiles).
func dedupeResources(rs []lock.Resource) []lock.Resource {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Class != rs[j].Class {
			return rs[i].Class < rs[j].Class
		}
		return rs[i].ID < rs[j].ID
	})
	out := rs[:0]
	for _, r := range rs {
		if len(out) == 0 || out[len(out)-1] != r {
			out = append(out, r)
		}
	}
	return out
}
