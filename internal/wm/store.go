package wm

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Store is the shared working memory: a concurrency-safe tuple store,
// keyed by class and by ID; the match network, not the store, answers
// attribute-value queries. All mutation goes through Deltas (directly
// via Apply, or staged in a Txn), so the match phase can be driven
// incrementally from the exact set of changes each production commit
// makes.
//
// One RWMutex guards the class maps and the ID map, so every mutation
// — a whole Apply included — is atomic to readers. The ID and recency
// counters are atomics: Txn.Insert reserves IDs without the lock. A
// class keeps its (possibly empty) map once it has had a tuple, so a
// class that oscillates between zero and one tuple allocates no map
// per insert.
type Store struct {
	nextID atomic.Int64
	clock  atomic.Uint64

	mu      sync.RWMutex
	byClass map[string]map[int64]*WME
	byID    map[int64]*WME // current versions

	// met, when non-nil, counts per-class reads and writes (obs).
	met *storeMetrics
}

// NewStore returns an empty working memory.
func NewStore() *Store {
	return &Store{byClass: make(map[string]map[int64]*WME), byID: make(map[int64]*WME)}
}

// Delta is an atomic set of working-memory changes: the removed WMEs
// (prior versions) and the added WMEs (new versions). A modify appears
// as a remove of the old version plus an add carrying the same ID.
type Delta struct {
	Removes []*WME
	Adds    []*WME
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool { return len(d.Removes) == 0 && len(d.Adds) == 0 }

// Invert returns the delta that undoes d.
func (d *Delta) Invert() *Delta {
	inv := &Delta{Adds: make([]*WME, len(d.Removes)), Removes: make([]*WME, len(d.Adds))}
	copy(inv.Adds, d.Removes)
	copy(inv.Removes, d.Adds)
	return inv
}

// allocID reserves a fresh WME identity.
func (s *Store) allocID() int64 { return s.nextID.Add(1) }

// addLocked makes w the current version of its ID in its class map and
// the ID map. Caller holds s.mu for writing.
func (s *Store) addLocked(w *WME) {
	cls := s.byClass[w.Class]
	if cls == nil {
		cls = make(map[int64]*WME)
		s.byClass[w.Class] = cls
	}
	cls[w.ID] = w
	s.byID[w.ID] = w
}

// add inserts a fully-stamped WME.
func (s *Store) add(w *WME) {
	s.mu.Lock()
	s.addLocked(w)
	s.mu.Unlock()
	s.met.write(w.Class)
}

// Insert creates a WME with the given class and attributes, assigns it
// a fresh ID and time tag, and adds it to the store.
func (s *Store) Insert(class string, attrs map[string]Value) *WME {
	w := &WME{ID: s.nextID.Add(1), TimeTag: s.clock.Add(1), Class: class, attrs: attrsFromMap(attrs)}
	s.add(w)
	return w
}

// Get returns the current version of the WME with the given ID.
func (s *Store) Get(id int64) (*WME, bool) {
	s.mu.RLock()
	w, ok := s.byID[id]
	s.mu.RUnlock()
	if ok {
		s.met.read(w.Class)
	}
	return w, ok
}

// Live reports whether tag is the time tag of the current version of
// the WME with the given ID. Unlike Get it counts no read: it serves
// engine bookkeeping, not a rule.
func (s *Store) Live(id int64, tag uint64) bool {
	s.mu.RLock()
	w, ok := s.byID[id]
	s.mu.RUnlock()
	return ok && w.TimeTag == tag
}

// Remove deletes the WME with the given ID and returns the removed
// version, or false if it is not present.
func (s *Store) Remove(id int64) (*WME, bool) {
	s.mu.Lock()
	w, ok := s.byID[id]
	if ok {
		delete(s.byClass[w.Class], id)
		delete(s.byID, id)
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	s.met.write(w.Class)
	return w, true
}

// Modify replaces the attributes of the WME with the given ID,
// returning the old and new versions. The new version keeps the ID but
// receives a fresh time tag. Updates with nil values delete attributes.
func (s *Store) Modify(id int64, updates []AttrValue) (old, new_ *WME, err error) {
	s.mu.Lock()
	cur, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("wm: modify: no WME with id %d", id)
	}
	n := cur.WithAttrs(updates)
	n.TimeTag = s.clock.Add(1)
	s.addLocked(n)
	s.mu.Unlock()
	s.met.write(cur.Class)
	return cur, n, nil
}

// Apply applies a delta atomically: all removes, then all adds. Adds
// whose ID is zero are assigned fresh IDs; all adds receive fresh time
// tags, stamped in delta order so sequential runs stay deterministic.
// It returns the applied delta with final IDs and time tags filled in;
// each removed entry is the version that was current. Removing an
// absent WME is an error and nothing is applied. A WME listed twice is
// removed once. Each added version adopts the attribute slice of the
// WME it was given rather than copying it; attribute slices are never
// written once their WME is built (see WME).
func (s *Store) Apply(d *Delta) (*Delta, error) {
	// One backing array holds both result slices.
	ws := make([]*WME, len(d.Removes)+len(d.Adds))
	removes, adds := ws[:len(d.Removes):len(d.Removes)], ws[len(d.Removes):]
	s.mu.Lock()
	for i, r := range d.Removes {
		w, ok := s.byID[r.ID]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("wm: apply: remove of absent WME %d", r.ID)
		}
		removes[i] = w
	}
	for _, w := range removes {
		delete(s.byClass[w.Class], w.ID)
		delete(s.byID, w.ID)
	}
	for i, a := range d.Adds {
		w := &WME{ID: a.ID, Class: a.Class, attrs: a.attrs}
		if w.ID == 0 {
			w.ID = s.nextID.Add(1)
		}
		w.TimeTag = s.clock.Add(1)
		adds[i] = w
		s.addLocked(w)
	}
	s.mu.Unlock()
	if s.met != nil {
		for _, w := range removes {
			s.met.write(w.Class)
		}
		for _, w := range adds {
			s.met.write(w.Class)
		}
	}
	return &Delta{Removes: removes, Adds: adds}, nil
}

// Len reports the number of WMEs in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// ByClass returns the current WMEs of a class, ordered by ID.
func (s *Store) ByClass(class string) []*WME {
	s.mu.RLock()
	cls := s.byClass[class]
	out := make([]*WME, 0, len(cls))
	for _, w := range cls {
		out = append(out, w)
	}
	s.mu.RUnlock()
	sortWMEs(out)
	s.met.read(class)
	return out
}

// All returns every WME in the store, ordered by ID.
func (s *Store) All() []*WME {
	s.mu.RLock()
	out := make([]*WME, 0, len(s.byID))
	for _, w := range s.byID {
		out = append(out, w)
	}
	s.mu.RUnlock()
	sortWMEs(out)
	return out
}

// Clone returns a deep copy of the store (WMEs themselves are shared;
// they are immutable). Metrics are not carried over.
func (s *Store) Clone() *Store {
	c := NewStore()
	c.nextID.Store(s.nextID.Load())
	c.clock.Store(s.clock.Load())
	s.mu.RLock()
	defer s.mu.RUnlock()
	for class, cls := range s.byClass {
		c.byClass[class] = maps.Clone(cls)
	}
	c.byID = maps.Clone(s.byID)
	return c
}

// Clock returns the current recency counter.
func (s *Store) Clock() uint64 { return s.clock.Load() }

func sortWMEs(ws []*WME) {
	slices.SortFunc(ws, func(a, b *WME) int { return cmp.Compare(a.ID, b.ID) })
}
