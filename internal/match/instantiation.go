package match

import (
	"fmt"
	"slices"
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

	// Pos is not the matcher's: the engines' agenda keeps its entry's
	// heap position in it, plus one (zero: no entry). slot is the index
	// in the conflict set's members while the instantiation is one.
	Pos, slot int32

	keyOnce sync.Once
	key     string
}

// Key returns a string uniquely identifying the instantiation: the
// rule name plus the identities and versions of the matched WMEs. Two
// instantiations with equal keys matched the same data. The key is
// memoized — refraction, the trace and the WAL ask for it, from
// workers and committer concurrently, and the inputs (rule and
// matched WME versions) are immutable once matched. The key
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

// ConflictSet is the set of active instantiations (the paper's P^A),
// held by identity: a matcher adds each instantiation it makes and
// removes that same pointer when the match dies, so no two members are
// compared by key. The members sit in a dense slice and each knows its
// own slot. The zero value is an empty set. It is not safe for
// concurrent use; engines serialise access to it.
//
// With change tracking enabled the set additionally journals every
// membership change, so an engine can follow the set incrementally
// instead of rescanning it: the engines keep their ordered agenda from
// it. Tracking is off by default, and an engine that enables it must
// drain the journal with TakeChanges so it does not accumulate.
type ConflictSet struct {
	members []*Instantiation

	track          bool
	added, removed []*Instantiation
}

// TrackChanges switches membership journaling on or off. Switching it
// on while the set is populated journals the current members as added,
// in slot order, so the first TakeChanges drain sees them.
func (cs *ConflictSet) TrackChanges(on bool) {
	if on && !cs.track {
		cs.added = append(cs.added, cs.members...)
	}
	cs.track = on
	if !on {
		cs.added, cs.removed = nil, nil
	}
}

// TakeChanges drains the journal: the instantiations added and removed
// since the last drain, each in the order of the change. The journal
// records raw events, not the net effect: an instantiation added and
// removed between two drains is in both lists, and Contains tells
// whether it is still a member.
func (cs *ConflictSet) TakeChanges() (added, removed []*Instantiation) {
	added, removed = cs.added, cs.removed
	cs.added, cs.removed = nil, nil
	return added, removed
}

// Add inserts an instantiation that is not a member.
func (cs *ConflictSet) Add(in *Instantiation) {
	in.slot = int32(len(cs.members))
	cs.members = append(cs.members, in)
	if cs.track {
		cs.added = append(cs.added, in)
	}
}

// Remove deletes a member; the last member takes its slot.
func (cs *ConflictSet) Remove(in *Instantiation) {
	last := len(cs.members) - 1
	moved := cs.members[last]
	cs.members[in.slot], moved.slot = moved, in.slot
	cs.members[last] = nil
	cs.members = cs.members[:last]
	if cs.track {
		cs.removed = append(cs.removed, in)
	}
}

// RemoveIf deletes every member for which drop reports true, from the
// last slot down, so each removal moves in a member already kept.
func (cs *ConflictSet) RemoveIf(drop func(*Instantiation) bool) {
	for i := len(cs.members) - 1; i >= 0; i-- {
		if in := cs.members[i]; drop(in) {
			cs.Remove(in)
		}
	}
}

// Len reports the number of instantiations.
func (cs *ConflictSet) Len() int { return len(cs.members) }

// Contains reports whether in is a member.
func (cs *ConflictSet) Contains(in *Instantiation) bool {
	return int(in.slot) < len(cs.members) && cs.members[in.slot] == in
}

// All returns the instantiations ordered deterministically by key.
func (cs *ConflictSet) All() []*Instantiation {
	out := slices.Clone(cs.members)
	slices.SortFunc(out, func(a, b *Instantiation) int { return strings.Compare(a.Key(), b.Key()) })
	return out
}
