package wm

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
)

// numShards is the class-shard count of a Store. Classes are hashed
// across shards, so readers and writers of different classes never
// touch the same mutex.
const numShards = 16

// classShard holds the per-class tuple maps of the classes that hash
// to it.
type classShard struct {
	mu      sync.RWMutex
	byClass map[string]map[int64]*WME
}

// Store is the shared working memory: an indexed, concurrency-safe
// tuple store. All mutation goes through Deltas (directly via Apply,
// or staged in a Txn), so the match phase can be driven incrementally
// from the exact set of changes each production commit makes.
//
// The store is sharded by WME class: each shard has its own RWMutex
// over its classes' tuple maps, the ID→WME map is a lock-free
// sync.Map, and the ID/recency counters are atomics. A mutation is
// atomic per class; modifies additionally replace the ID entry in
// place, so a concurrent Get never observes the tuple absent
// mid-modify.
type Store struct {
	nextID atomic.Int64
	clock  atomic.Uint64
	count  atomic.Int64

	byID   sync.Map // int64 → *WME, current versions
	shards [numShards]classShard
	seed   maphash.Seed

	ixMu    sync.RWMutex
	indexes map[string]*Index

	// met, when non-nil, counts per-class reads and writes (obs).
	met *storeMetrics
}

// NewStore returns an empty working memory.
func NewStore() *Store {
	s := &Store{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].byClass = make(map[string]map[int64]*WME)
	}
	return s
}

// shardFor maps a class to its shard.
func (s *Store) shardFor(class string) *classShard {
	return &s.shards[maphash.String(s.seed, class)%numShards]
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

// add inserts a fully-stamped WME into its class shard, the ID map and
// the indexes.
func (s *Store) add(w *WME) {
	sh := s.shardFor(w.Class)
	sh.mu.Lock()
	cls := sh.byClass[w.Class]
	if cls == nil {
		cls = make(map[int64]*WME)
		sh.byClass[w.Class] = cls
	}
	cls[w.ID] = w
	s.byID.Store(w.ID, w)
	s.notifyIndexesAdd(w)
	sh.mu.Unlock()
	s.count.Add(1)
	s.met.write(w.Class)
}

// Insert creates a WME with the given class and attributes, assigns it
// a fresh ID and time tag, and adds it to the store.
func (s *Store) Insert(class string, attrs map[string]Value) *WME {
	w := &WME{ID: s.nextID.Add(1), TimeTag: s.clock.Add(1), Class: class, attrs: copyAttrs(attrs)}
	s.add(w)
	return w
}

// Get returns the current version of the WME with the given ID.
func (s *Store) Get(id int64) (*WME, bool) {
	v, ok := s.byID.Load(id)
	if !ok {
		return nil, false
	}
	w := v.(*WME)
	s.met.read(w.Class)
	return w, true
}

// Live reports whether tag is the time tag of the current version of
// the WME with the given ID. Unlike Get it counts no read: it serves
// engine bookkeeping, not a rule.
func (s *Store) Live(id int64, tag uint64) bool {
	v, ok := s.byID.Load(id)
	return ok && v.(*WME).TimeTag == tag
}

// Remove deletes the WME with the given ID and returns the removed
// version, or false if it is not present.
func (s *Store) Remove(id int64) (*WME, bool) {
	v, ok := s.byID.Load(id)
	if !ok {
		return nil, false
	}
	sh := s.shardFor(v.(*WME).Class)
	sh.mu.Lock()
	cur, ok := sh.byClass[v.(*WME).Class][id] // re-check under the shard lock
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	s.removeShardLocked(sh, cur)
	sh.mu.Unlock()
	s.count.Add(-1)
	s.met.write(cur.Class)
	return cur, true
}

// removeShardLocked deletes a current version from its class map, the
// ID map and the indexes. Caller holds sh.mu.
func (s *Store) removeShardLocked(sh *classShard, w *WME) {
	if cls := sh.byClass[w.Class]; cls != nil {
		delete(cls, w.ID)
		if len(cls) == 0 {
			delete(sh.byClass, w.Class)
		}
	}
	s.byID.Delete(w.ID)
	s.notifyIndexesRemove(w)
}

// Modify replaces the attributes of the WME with the given ID,
// returning the old and new versions. The new version keeps the ID but
// receives a fresh time tag. Updates with nil values delete attributes.
func (s *Store) Modify(id int64, updates map[string]Value) (old, new_ *WME, err error) {
	v, ok := s.byID.Load(id)
	if !ok {
		return nil, nil, fmt.Errorf("wm: modify: no WME with id %d", id)
	}
	class := v.(*WME).Class
	sh := s.shardFor(class)
	sh.mu.Lock()
	cur, ok := sh.byClass[class][id]
	if !ok {
		sh.mu.Unlock()
		return nil, nil, fmt.Errorf("wm: modify: no WME with id %d", id)
	}
	n := cur.WithAttrs(updates)
	n.TimeTag = s.clock.Add(1)
	sh.byClass[class][id] = n
	s.byID.Store(id, n) // in-place replace: Get never sees the ID absent
	s.notifyIndexesRemove(cur)
	s.notifyIndexesAdd(n)
	sh.mu.Unlock()
	s.met.write(class)
	return cur, n, nil
}

// Apply applies a delta: all removes, then all adds, atomically per
// class shard. Adds whose ID is zero are assigned fresh IDs; all adds
// receive fresh time tags, stamped in delta order so sequential runs
// stay deterministic. It returns the applied delta with final IDs and
// time tags filled in. Removing an absent WME is an error and nothing
// is applied. A remove+add pair sharing an ID (a modify) replaces the
// ID entry in place, so concurrent readers of other classes see the
// tuple present throughout. Each added version adopts the attribute
// map of the WME it was given rather than copying it; attribute maps
// are never written once their WME is built (see WME).
func (s *Store) Apply(d *Delta) (*Delta, error) {
	removes := make([]*WME, len(d.Removes))
	for i, r := range d.Removes {
		v, ok := s.byID.Load(r.ID)
		if !ok {
			return nil, fmt.Errorf("wm: apply: remove of absent WME %d", r.ID)
		}
		removes[i] = v.(*WME)
	}
	adds := make([]*WME, len(d.Adds))
	for i, a := range d.Adds {
		w := &WME{ID: a.ID, Class: a.Class, attrs: a.attrs}
		if w.ID == 0 {
			w.ID = s.nextID.Add(1)
		}
		w.TimeTag = s.clock.Add(1)
		adds[i] = w
	}
	readded := make(map[int64]bool, len(adds))
	for _, w := range adds {
		readded[w.ID] = true
	}

	type ops struct{ rem, add []*WME }
	byShard := make(map[*classShard]*ops)
	group := func(w *WME) *ops {
		sh := s.shardFor(w.Class)
		o := byShard[sh]
		if o == nil {
			o = &ops{}
			byShard[sh] = o
		}
		return o
	}
	for _, w := range removes {
		o := group(w)
		o.rem = append(o.rem, w)
	}
	for _, w := range adds {
		o := group(w)
		o.add = append(o.add, w)
	}
	for sh, o := range byShard {
		sh.mu.Lock()
		for _, w := range o.rem {
			if cls := sh.byClass[w.Class]; cls != nil {
				delete(cls, w.ID)
				if len(cls) == 0 {
					delete(sh.byClass, w.Class)
				}
			}
			if !readded[w.ID] {
				s.byID.Delete(w.ID)
			}
			s.notifyIndexesRemove(w)
		}
		for _, w := range o.add {
			cls := sh.byClass[w.Class]
			if cls == nil {
				cls = make(map[int64]*WME)
				sh.byClass[w.Class] = cls
			}
			cls[w.ID] = w
			s.byID.Store(w.ID, w)
			s.notifyIndexesAdd(w)
		}
		sh.mu.Unlock()
	}
	s.count.Add(int64(len(adds)) - int64(len(removes)))
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
func (s *Store) Len() int { return int(s.count.Load()) }

// ByClass returns the current WMEs of a class, ordered by ID.
func (s *Store) ByClass(class string) []*WME {
	sh := s.shardFor(class)
	sh.mu.RLock()
	out := make([]*WME, 0, len(sh.byClass[class]))
	for _, w := range sh.byClass[class] {
		out = append(out, w)
	}
	sh.mu.RUnlock()
	sortWMEs(out)
	s.met.read(class)
	return out
}

// Classes returns the names of the non-empty classes in sorted order.
func (s *Store) Classes() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for c := range sh.byClass {
			out = append(out, c)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// All returns every WME in the store, ordered by ID.
func (s *Store) All() []*WME {
	var out []*WME
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, cls := range sh.byClass {
			for _, w := range cls {
				out = append(out, w)
			}
		}
		sh.mu.RUnlock()
	}
	sortWMEs(out)
	return out
}

// Clone returns a deep copy of the store (WMEs themselves are shared;
// they are immutable). Indexes are not cloned.
func (s *Store) Clone() *Store {
	c := NewStore()
	c.nextID.Store(s.nextID.Load())
	c.clock.Store(s.clock.Load())
	for _, w := range s.All() {
		sh := c.shardFor(w.Class)
		cls := sh.byClass[w.Class]
		if cls == nil {
			cls = make(map[int64]*WME)
			sh.byClass[w.Class] = cls
		}
		cls[w.ID] = w
		c.byID.Store(w.ID, w)
		c.count.Add(1)
	}
	return c
}

// Clock returns the current recency counter.
func (s *Store) Clock() uint64 { return s.clock.Load() }

func sortWMEs(ws []*WME) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
}
