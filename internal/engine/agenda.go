package engine

import (
	"pdps/internal/cr"
	"pdps/internal/match"
)

// agenda is every engine's ordered view of the conflict set: the
// members no one has taken yet, ranked by the strategy in a
// binary heap whose top is the dominant instantiation. The serial step
// picks from it in O(log n) instead of listing and sorting the whole
// set, and Parallel's committer dispatches from it in the same order.
// It follows the set through its change journal
// (ConflictSet.TakeChanges) and removes an entry as soon as its key
// leaves the set, so it never holds more entries than the set has
// members. Removed entries are recycled, so in steady state a member
// entering the agenda costs no allocation.
type agenda struct {
	order cr.Strategy
	// held reports keys kept out of the heap: fired keys, and under
	// Parallel also the keys it has dispatched.
	held  func(key string) bool
	met   *engineMetrics
	heap  []*agendaEntry
	byKey map[string]*agendaEntry
	free  []*agendaEntry
}

// agendaEntry is one ranked member, its position in the heap, and the
// state Parallel keeps on it while it is dispatched.
type agendaEntry struct {
	cr.Rank
	pos int
	flight
}

func newAgenda(o cr.Strategy, held func(key string) bool, met *engineMetrics) *agenda {
	return &agenda{order: o, held: held, met: met, byKey: make(map[string]*agendaEntry)}
}

// next applies the journal of cs and returns the dominant member that
// is not held, or nil when there is none.
func (a *agenda) next(cs *match.ConflictSet) *match.Instantiation {
	a.drain(cs)
	if e := a.top(); e != nil {
		return e.In
	}
	return nil
}

// drain applies the journal of cs and returns how many entries it
// pushed. A journal without removals whose additions number the whole
// set is a full membership — the initial one that switching tracking
// on journals, or any delta after which every member is new — and the
// agenda is already empty before it, since an entry leaves the agenda
// as soon as its key leaves the set. Keys journaled as both removed
// and added are resolved by Contains, and a member that re-entered the
// set under a known key replaces the stale instantiation. A drain that
// finds changes is one engine_journal_batch_size observation and
// counts as a snapshot or a delta refresh.
func (a *agenda) drain(cs *match.ConflictSet) (pushed int) {
	added, removed := cs.TakeChanges()
	full := len(removed) == 0 && len(added) == cs.Len()
	if n := len(added) + len(removed); n > 0 {
		a.met.journalBatch.Observe(int64(n))
		if full {
			a.met.refreshSnapshot.Inc()
		} else {
			a.met.refreshDelta.Inc()
		}
	}
	for _, k := range removed {
		if e := a.byKey[k]; e != nil && !cs.Contains(k) {
			a.remove(e)
		}
	}
	for _, in := range added {
		k := in.Key()
		if !cs.Contains(k) || a.held(k) {
			continue
		}
		if e := a.byKey[k]; e != nil {
			e.In = in
			continue
		}
		a.push(in)
		pushed++
	}
	return pushed
}

// top returns the dominant entry that is not held, first dropping held
// entries from the top, or nil when there is none.
func (a *agenda) top() *agendaEntry {
	for len(a.heap) > 0 {
		e := a.heap[0]
		if !a.held(e.Key()) {
			return e
		}
		a.remove(e)
	}
	return nil
}

// push ranks in into a recycled or new entry and adds it.
func (a *agenda) push(in *match.Instantiation) {
	var e *agendaEntry
	if n := len(a.free); n > 0 {
		e, a.free = a.free[n-1], a.free[:n-1]
	} else {
		e = new(agendaEntry)
	}
	e.Set(in)
	e.retries = 0
	a.link(e)
}

// link adds a ranked entry to the heap and the key index.
func (a *agenda) link(e *agendaEntry) {
	e.pos = len(a.heap)
	a.byKey[e.Key()] = e
	a.heap = append(a.heap, e)
	a.up(e.pos)
}

// unlink takes e out of the heap and the key index without recycling
// it; Parallel holds an unlinked entry while it is in flight.
func (a *agenda) unlink(e *agendaEntry) {
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

// remove deletes e from the agenda and recycles it.
func (a *agenda) remove(e *agendaEntry) {
	a.unlink(e)
	a.release(e)
}

// release puts an entry that is in no heap on the free list.
func (a *agenda) release(e *agendaEntry) {
	e.Rank = cr.Rank{}
	a.free = append(a.free, e)
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
