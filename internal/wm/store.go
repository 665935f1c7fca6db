package wm

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
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

// idShard holds the current versions of the IDs that hash to it.
type idShard struct {
	mu sync.RWMutex
	m  map[int64]*WME
}

// Store is the shared working memory: an indexed, concurrency-safe
// tuple store. All mutation goes through Deltas (directly via Apply,
// or staged in a Txn), so the match phase can be driven incrementally
// from the exact set of changes each production commit makes.
//
// The store is sharded by WME class: each shard has its own RWMutex
// over its classes' tuple maps. The ID→WME index is sharded by ID, each
// shard a map under its own RWMutex, taken only inside a class-shard
// lock (lock order: class shard → ID shard); the ID/recency counters
// are atomics. A mutation is atomic per class; modifies additionally
// replace the ID entry in place, so a concurrent Get never observes
// the tuple absent mid-modify.
type Store struct {
	nextID atomic.Int64
	clock  atomic.Uint64
	count  atomic.Int64

	byID   [numShards]idShard // current versions
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

// shardIndex maps a class to the index of its shard.
func (s *Store) shardIndex(class string) uint8 {
	return uint8(maphash.String(s.seed, class) % numShards)
}

// shardFor maps a class to its shard.
func (s *Store) shardFor(class string) *classShard {
	return &s.shards[s.shardIndex(class)]
}

// lookup returns the current version of the WME with the given ID.
func (s *Store) lookup(id int64) (*WME, bool) {
	sh := &s.byID[uint64(id)%numShards]
	sh.mu.RLock()
	w, ok := sh.m[id]
	sh.mu.RUnlock()
	return w, ok
}

// setID makes w the current version of its ID. The caller holds w's
// class-shard lock.
func (s *Store) setID(w *WME) {
	sh := &s.byID[uint64(w.ID)%numShards]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[int64]*WME)
	}
	sh.m[w.ID] = w
	sh.mu.Unlock()
}

// dropID deletes the ID entry of w if it still holds w; an entry a
// modify has already replaced stays. The caller holds w's class-shard
// lock.
func (s *Store) dropID(w *WME) {
	sh := &s.byID[uint64(w.ID)%numShards]
	sh.mu.Lock()
	if sh.m[w.ID] == w {
		delete(sh.m, w.ID)
	}
	sh.mu.Unlock()
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
	s.setID(w)
	s.notifyIndexesAdd(w)
	sh.mu.Unlock()
	s.count.Add(1)
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
	w, ok := s.lookup(id)
	if ok {
		s.met.read(w.Class)
	}
	return w, ok
}

// Live reports whether tag is the time tag of the current version of
// the WME with the given ID. Unlike Get it counts no read: it serves
// engine bookkeeping, not a rule.
func (s *Store) Live(id int64, tag uint64) bool {
	w, ok := s.lookup(id)
	return ok && w.TimeTag == tag
}

// Remove deletes the WME with the given ID and returns the removed
// version, or false if it is not present.
func (s *Store) Remove(id int64) (*WME, bool) {
	w, ok := s.lookup(id)
	if !ok {
		return nil, false
	}
	sh := s.shardFor(w.Class)
	sh.mu.Lock()
	cur, ok := sh.byClass[w.Class][id] // re-check under the shard lock
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
	s.dropID(w)
	s.notifyIndexesRemove(w)
}

// Modify replaces the attributes of the WME with the given ID,
// returning the old and new versions. The new version keeps the ID but
// receives a fresh time tag. Updates with nil values delete attributes.
func (s *Store) Modify(id int64, updates map[string]Value) (old, new_ *WME, err error) {
	w, ok := s.lookup(id)
	if !ok {
		return nil, nil, fmt.Errorf("wm: modify: no WME with id %d", id)
	}
	class := w.Class
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
	s.setID(n) // in-place replace: Get never sees the ID absent
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
// is applied. A remove+add pair sharing an ID (a modify, which keeps
// its class and so its shard) replaces the ID entry in place, so
// concurrent readers see the tuple present throughout. A remove takes
// effect only if its version is still current under the shard lock, so
// a concurrent Modify or Remove of the same ID, or a WME listed twice,
// leaves the class map, the ID index and Len in step. Each added
// version adopts the attribute slice of the WME it was given rather
// than copying it; attribute slices are never written once their WME
// is built (see WME).
func (s *Store) Apply(d *Delta) (*Delta, error) {
	// One backing array holds both result slices.
	ws := make([]*WME, len(d.Removes)+len(d.Adds))
	removes, adds := ws[:len(d.Removes):len(d.Removes)], ws[len(d.Removes):]
	for i, r := range d.Removes {
		w, ok := s.lookup(r.ID)
		if !ok {
			return nil, fmt.Errorf("wm: apply: remove of absent WME %d", r.ID)
		}
		removes[i] = w
	}
	for i, a := range d.Adds {
		w := &WME{ID: a.ID, Class: a.Class, attrs: a.attrs}
		if w.ID == 0 {
			w.ID = s.nextID.Add(1)
		}
		w.TimeTag = s.clock.Add(1)
		adds[i] = w
	}

	// Hash each class once; visit only the shards the delta touches.
	var buf [16]uint8
	shard := buf[:0] // the shard index of each remove, then of each add
	var touched [numShards]bool
	for _, w := range removes {
		i := s.shardIndex(w.Class)
		shard = append(shard, i)
		touched[i] = true
	}
	for _, w := range adds {
		i := s.shardIndex(w.Class)
		shard = append(shard, i)
		touched[i] = true
	}
	remShard, addShard := shard[:len(removes)], shard[len(removes):]
	removed := 0
	for i := range s.shards {
		if !touched[i] {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		for j, w := range removes {
			if remShard[j] != uint8(i) {
				continue
			}
			// Re-check under the shard lock, as Remove does: a version
			// another writer has replaced or removed since the lookup stays.
			if cls := sh.byClass[w.Class]; cls[w.ID] == w {
				delete(cls, w.ID)
				s.notifyIndexesRemove(w)
				removed++
			}
		}
		for j, w := range adds {
			if addShard[j] != uint8(i) {
				continue
			}
			cls := sh.byClass[w.Class]
			if cls == nil {
				cls = make(map[int64]*WME)
				sh.byClass[w.Class] = cls
			}
			cls[w.ID] = w
			s.setID(w)
			s.notifyIndexesAdd(w)
		}
		// After the adds, so a modify replaces its ID entry and keeps its
		// class map even when it is the class's only tuple.
		for j, w := range removes {
			if remShard[j] != uint8(i) {
				continue
			}
			s.dropID(w)
			if len(sh.byClass[w.Class]) == 0 {
				delete(sh.byClass, w.Class)
			}
		}
		sh.mu.Unlock()
	}
	s.count.Add(int64(len(adds) - removed))
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
		c.setID(w)
		c.count.Add(1)
	}
	return c
}

// Clock returns the current recency counter.
func (s *Store) Clock() uint64 { return s.clock.Load() }

func sortWMEs(ws []*WME) {
	slices.SortFunc(ws, func(a, b *WME) int { return cmp.Compare(a.ID, b.ID) })
}
