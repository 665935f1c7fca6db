package engine

import (
	"pdps/internal/cr"
	"pdps/internal/match"
)

// agenda is the serial engines' ordered view of the conflict set: the
// unfired members ranked by an Ordered strategy in a binary heap whose
// top is the dominant instantiation, so a recognize–act cycle picks in
// O(log n) instead of listing and sorting the whole set. It follows the
// set through its change journal (ConflictSet.TakeChanges) and removes
// an entry as soon as its key leaves the set, so it never holds more
// entries than the set has members.
type agenda struct {
	order cr.Ordered
	heap  []*agendaEntry
	byKey map[string]*agendaEntry
}

// agendaEntry is one ranked member and its position in the heap.
type agendaEntry struct {
	cr.Rank
	pos int
}

func newAgenda(o cr.Ordered) *agenda {
	return &agenda{order: o, byKey: make(map[string]*agendaEntry)}
}

// next applies the journal of cs and returns the dominant unfired
// member, or nil when there is none. A journal without removals whose
// additions number the whole set is a full membership — what a matcher
// that rebuilds the set (naive) journals — and replaces the agenda; a
// delta journal holds only members that were added (so the agenda was
// empty before), which makes the same reconcile exact. Keys journaled
// as both removed and added are resolved by Contains, and a member that
// re-entered the set under a known key replaces the stale instantiation.
func (a *agenda) next(cs *match.ConflictSet, fired map[string]*match.Instantiation) *match.Instantiation {
	added, removed := cs.TakeChanges()
	if len(removed) == 0 && len(added) == cs.Len() {
		clear(a.byKey)
		clear(a.heap)
		a.heap = a.heap[:0]
	}
	for _, k := range removed {
		if e := a.byKey[k]; e != nil && !cs.Contains(k) {
			a.remove(e)
		}
	}
	for _, in := range added {
		k := in.Key()
		if !cs.Contains(k) || fired[k] != nil {
			continue
		}
		if e := a.byKey[k]; e != nil {
			e.In = in
			continue
		}
		a.push(in)
	}
	for len(a.heap) > 0 {
		top := a.heap[0]
		if fired[top.Key()] == nil {
			return top.In
		}
		a.remove(top)
	}
	return nil
}

func (a *agenda) push(in *match.Instantiation) {
	e := &agendaEntry{pos: len(a.heap)}
	e.Set(in)
	a.byKey[e.Key()] = e
	a.heap = append(a.heap, e)
	a.up(e.pos)
}

// remove deletes e from the heap and the key index.
func (a *agenda) remove(e *agendaEntry) {
	delete(a.byKey, e.Key())
	last := len(a.heap) - 1
	i := e.pos
	a.swap(i, last)
	a.heap[last] = nil
	a.heap = a.heap[:last]
	if i < last {
		a.down(i)
		a.up(i)
	}
}

// before reports whether entry i dominates entry j.
func (a *agenda) before(i, j int) bool {
	return a.order.Dominates(&a.heap[i].Rank, &a.heap[j].Rank)
}

func (a *agenda) swap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.heap[i].pos, a.heap[j].pos = i, j
}

func (a *agenda) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !a.before(i, p) {
			return
		}
		a.swap(i, p)
		i = p
	}
}

func (a *agenda) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(a.heap) {
			return
		}
		if r := c + 1; r < len(a.heap) && a.before(r, c) {
			c = r
		}
		if !a.before(c, i) {
			return
		}
		a.swap(i, c)
		i = c
	}
}
