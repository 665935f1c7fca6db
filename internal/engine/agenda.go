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
// (ConflictSet.TakeChanges), by identity: an instantiation keeps the
// heap position of its entry (Instantiation.Pos), and its entry leaves
// as soon as it leaves the set, so the agenda never holds more entries
// than the set has members. Removed entries are recycled, so in steady
// state a member entering the agenda costs no allocation.
type agenda struct {
	order cr.Strategy
	// fired is the refraction memory; a fired key is kept out of the
	// heap. claim, if set, keeps out other entering members: Parallel's
	// keys in flight.
	fired map[string]*match.Instantiation
	claim func(in *match.Instantiation) bool
	met   *engineMetrics
	heap  []*agendaEntry
	free  []*agendaEntry
}

// agendaEntry is one ranked member and the state Parallel keeps on it
// while it is dispatched.
type agendaEntry struct {
	cr.Rank
	flight
}

// drain applies the journal of cs and returns how many entries it
// pushed: a removed instantiation's entry leaves, and an added one
// that is still a member and not kept out gets an entry. A drain that
// finds changes is one engine_journal_batch_size observation and a
// snapshot refresh if it is a full membership (no removals, every
// member added: the agenda was empty before it), else a delta one.
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
	for _, in := range removed {
		if in.Pos > 0 {
			e := a.heap[in.Pos-1]
			a.unlink(e)
			a.release(e)
		}
	}
	for _, in := range added {
		if !cs.Contains(in) || a.fired[in.Key()] != nil || a.claim != nil && a.claim(in) {
			continue
		}
		a.push(in)
		pushed++
	}
	return pushed
}

// top returns the dominant entry that has not fired, first dropping
// fired entries from the top, or nil when there is none.
func (a *agenda) top() *agendaEntry {
	for len(a.heap) > 0 {
		e := a.heap[0]
		if a.fired[e.Key()] == nil {
			return e
		}
		a.unlink(e)
		a.release(e)
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

// link adds a ranked entry to the heap.
func (a *agenda) link(e *agendaEntry) {
	e.In.Pos = int32(len(a.heap)) + 1
	a.heap = append(a.heap, e)
	a.up(len(a.heap) - 1)
}

// unlink takes e out of the heap without recycling it; Parallel holds
// an unlinked entry while it is in flight.
func (a *agenda) unlink(e *agendaEntry) {
	last := len(a.heap) - 1
	i := int(e.In.Pos) - 1
	a.swap(i, last)
	a.heap[last] = nil
	a.heap = a.heap[:last]
	e.In.Pos = 0
	if i < last {
		a.down(i)
		a.up(i)
	}
}

// release puts an entry that is in no heap on the free list, keeping
// no instantiation alive.
func (a *agenda) release(e *agendaEntry) {
	e.Rank, e.member = cr.Rank{}, nil
	a.free = append(a.free, e)
}

// before reports whether entry i dominates entry j.
func (a *agenda) before(i, j int) bool {
	return a.order.Dominates(&a.heap[i].Rank, &a.heap[j].Rank)
}

func (a *agenda) swap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.heap[i].In.Pos, a.heap[j].In.Pos = int32(i)+1, int32(j)+1
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
