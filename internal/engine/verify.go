package engine

import (
	"fmt"

	"pdps/internal/match"
	"pdps/internal/trace"
	"pdps/internal/wm"
)

// CheckTrace is the post-hoc semantic-consistency checker (Definition
// 3.2): it verifies that a commit sequence recorded by any engine is a
// root-originating path of the single-thread execution graph of the
// program — i.e. that a single-thread run could have produced exactly
// this sequence. Committed instantiations are identified by rule name
// plus the content fingerprints of their matched WMEs; where several
// active instantiations share a fingerprint the checker backtracks.
//
// It returns nil if the sequence is consistent.
func CheckTrace(p Program, commits []trace.Event) error {
	store := wm.NewStore()
	for _, iw := range p.WMEs {
		store.Insert(iw.Class, iw.Attrs)
	}
	return checkTraceOn(store, p.Rules, commits)
}

// CheckTraceFrom is CheckTrace starting from an arbitrary working
// memory instead of the program's initial WMEs — the form crash
// recovery needs: a post-checkpoint trace tail is admissible iff it
// is a valid single-thread execution from the snapshot's state. The
// base store is not mutated (the checker replays a clone).
func CheckTraceFrom(base *wm.Store, rules []*match.Rule, commits []trace.Event) error {
	return checkTraceOn(base.Clone(), rules, commits)
}

// checkTraceOn validates the rules and replays the commit sequence
// against the given store, which it mutates.
func checkTraceOn(store *wm.Store, ruleList []*match.Rule, commits []trace.Event) error {
	rules := make(map[string]*match.Rule, len(ruleList))
	for _, r := range ruleList {
		if err := r.Validate(); err != nil {
			return err
		}
		rules[r.Name] = r
	}
	ok, err := replay(store, rules, commits)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: commit sequence is not a valid single-thread execution", ErrInconsistent)
	}
	return nil
}

// replay consumes commits against the store, backtracking over
// ambiguous instantiation choices. It mutates store only within a
// step's trial and restores it via delta inversion on backtrack.
func replay(store *wm.Store, rules map[string]*match.Rule, commits []trace.Event) (bool, error) {
	if len(commits) == 0 {
		return true, nil
	}
	step := commits[0]
	r, ok := rules[step.Rule]
	if !ok {
		return false, fmt.Errorf("engine: trace commits unknown rule %s", step.Rule)
	}
	for _, in := range match.MatchRule(store, r) {
		if !sameFingerprints(in, step.WMEs) {
			continue
		}
		tx := store.Begin()
		if _, err := match.ExecuteActions(in, tx); err != nil {
			tx.Abort()
			continue
		}
		applied, err := store.Apply(tx.Delta())
		if err != nil {
			return false, err
		}
		ok, err := replay(store, rules, commits[1:])
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		if _, err := store.Apply(applied.Invert()); err != nil {
			return false, fmt.Errorf("engine: replay undo failed: %v", err)
		}
	}
	return false, nil
}

// sameFingerprints reports whether in matched WMEs whose renderings
// are want. Each WME renders into one reused buffer, and the
// comparison of a converted buffer with a string does not allocate.
func sameFingerprints(in *match.Instantiation, want []string) bool {
	if len(in.WMEs) != len(want) {
		return false
	}
	var stack [256]byte
	b := stack[:0]
	for i, w := range in.WMEs {
		b = w.AppendTo(b[:0])
		if string(b) != want[i] {
			return false
		}
	}
	return true
}
