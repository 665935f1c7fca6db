package match

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pdps/internal/wm"
)

// Instantiation is one element of the conflict set: a rule together
// with the WMEs (one per positive condition element, in order) and the
// variable bindings that satisfy its LHS.
type Instantiation struct {
	Rule     *Rule
	WMEs     []*wm.WME
	Bindings Bindings

	keyOnce sync.Once
	key     string
}

// Key returns a string uniquely identifying the instantiation: the
// rule name plus the identities and versions of the matched WMEs. Two
// instantiations with equal keys matched the same data. The key is
// memoized — the engine asks for it on every dispatch, staleness check
// and commit, from workers and committer concurrently, and the inputs
// (rule and matched WME versions) are immutable once matched. The key
// is rendered in a stack buffer, so a key of up to 256 bytes costs one
// allocation, the string.
func (in *Instantiation) Key() string {
	in.keyOnce.Do(func() {
		var stack [256]byte
		buf := append(stack[:0], in.Rule.Name...)
		for _, w := range in.WMEs {
			buf = append(buf, '|')
			buf = strconv.AppendInt(buf, w.ID, 10)
			buf = append(buf, '@')
			buf = strconv.AppendUint(buf, w.TimeTag, 10)
		}
		in.key = string(buf)
	})
	return in.key
}

// AppendTimeTags appends the matched WMEs' time tags to dst, sorted in
// descending order — the recency vector the LEX family compares — and
// returns the extended slice. Given a dst with room, for instance a
// stack buffer, it does not allocate.
func (in *Instantiation) AppendTimeTags(dst []uint64) []uint64 {
	n := len(dst)
	for _, w := range in.WMEs {
		dst = append(dst, w.TimeTag)
	}
	slices.Sort(dst[n:])
	slices.Reverse(dst[n:])
	return dst
}

// Uses reports whether the instantiation matched the given WME version.
func (in *Instantiation) Uses(w *wm.WME) bool {
	for _, m := range in.WMEs {
		if m.ID == w.ID && m.TimeTag == w.TimeTag {
			return true
		}
	}
	return false
}

// String renders the instantiation as "rule [wme1, wme2, ...]".
func (in *Instantiation) String() string {
	parts := make([]string, len(in.WMEs))
	for i, w := range in.WMEs {
		parts[i] = w.String()
	}
	return fmt.Sprintf("%s [%s]", in.Rule.Name, strings.Join(parts, ", "))
}

// ConflictSet is the set of active instantiations (the paper's P^A).
// It is not safe for concurrent use; engines serialise access to it.
//
// With change tracking enabled the set additionally journals every
// membership change, so an engine can follow the set incrementally
// instead of rescanning it: the dynamic engine dispatches newly
// activated instantiations after each commit, and the serial engines
// keep their ordered agenda from it. Tracking is off by default, and
// an engine that enables it must drain the journal with TakeChanges
// so it does not accumulate.
type ConflictSet struct {
	byKey map[string]*Instantiation

	track   bool
	added   []*Instantiation
	removed []string
}

// NewConflictSet returns an empty conflict set.
func NewConflictSet() *ConflictSet {
	return &ConflictSet{byKey: make(map[string]*Instantiation)}
}

// TrackChanges switches membership journaling on or off. Switching it
// on while the set is populated journals the current members as added,
// so the first TakeChanges drain sees them.
func (cs *ConflictSet) TrackChanges(on bool) {
	if on && !cs.track {
		for _, in := range cs.byKey {
			cs.added = append(cs.added, in)
		}
	}
	cs.track = on
	if !on {
		cs.added, cs.removed = nil, nil
	}
}

// TakeChanges drains the journal: instantiations added and keys removed
// since the last drain. The journal records raw events, not the net
// effect — a key may appear in both lists; consult Contains for the
// final state.
func (cs *ConflictSet) TakeChanges() (added []*Instantiation, removed []string) {
	added, removed = cs.added, cs.removed
	cs.added, cs.removed = nil, nil
	return added, removed
}

// Add inserts an instantiation; it reports whether it was new.
func (cs *ConflictSet) Add(in *Instantiation) bool {
	k := in.Key()
	if _, ok := cs.byKey[k]; ok {
		return false
	}
	cs.byKey[k] = in
	if cs.track {
		cs.added = append(cs.added, in)
	}
	return true
}

// Remove deletes the instantiation with the given key; it reports
// whether it was present.
func (cs *ConflictSet) Remove(key string) bool {
	if _, ok := cs.byKey[key]; !ok {
		return false
	}
	delete(cs.byKey, key)
	if cs.track {
		cs.removed = append(cs.removed, key)
	}
	return true
}

// RemoveIf deletes every instantiation for which drop reports true, in
// one unordered pass.
func (cs *ConflictSet) RemoveIf(drop func(*Instantiation) bool) {
	for k, in := range cs.byKey {
		if drop(in) {
			delete(cs.byKey, k)
			if cs.track {
				cs.removed = append(cs.removed, k)
			}
		}
	}
}

// Len reports the number of instantiations.
func (cs *ConflictSet) Len() int { return len(cs.byKey) }

// Contains reports whether an instantiation with the key is present.
func (cs *ConflictSet) Contains(key string) bool {
	_, ok := cs.byKey[key]
	return ok
}

// All returns the instantiations ordered deterministically by key.
func (cs *ConflictSet) All() []*Instantiation {
	keys := make([]string, 0, len(cs.byKey))
	for k := range cs.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Instantiation, len(keys))
	for i, k := range keys {
		out[i] = cs.byKey[k]
	}
	return out
}
