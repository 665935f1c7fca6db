package match

import (
	"fmt"
	"sync"

	"pdps/internal/obs"
	"pdps/internal/wm"
)

// ShardedMatcher implements the paper's intra-phase match parallelism
// (Section 2, "execution of each phase in a parallel manner"): rules
// are partitioned round-robin across inner matchers, and working-memory
// updates and conflict-set computation fan out to the shards on
// goroutines. Because each rule lives in exactly one shard, the merged
// conflict set equals the one a single matcher would produce.
//
// The merged set is cached and maintained incrementally: every shard
// journals its own conflict-set changes (tracking is enabled on the
// shards at construction), and each ConflictSet call drains the
// per-shard journals into the cache. The merged set therefore journals
// true deltas itself, which keeps an engine that drains it with
// TakeChanges on the O(|delta|) dispatch path. Like every matcher,
// ShardedMatcher serialises ConflictSet calls with its other methods.
type ShardedMatcher struct {
	shards []Matcher
	names  map[string]bool
	next   int
	track  bool

	// journaling[i] reports shard i implements ChangeTracker; merged is
	// the cached union, mirror[i] its view of shard i's membership at
	// the last merge.
	journaling []bool
	merged     *ConflictSet
	mirror     []map[string]bool

	// mergeBatch records the changes applied per merge (nil until
	// SetMetrics).
	mergeBatch *obs.Histogram
}

// NewSharded builds a sharded matcher over n inner matchers produced
// by the factory (n < 1 is treated as 1).
func NewSharded(n int, factory func() Matcher) *ShardedMatcher {
	if n < 1 {
		n = 1
	}
	s := &ShardedMatcher{
		shards:     make([]Matcher, n),
		names:      make(map[string]bool),
		journaling: make([]bool, n),
		merged:     NewConflictSet(),
		mirror:     make([]map[string]bool, n),
	}
	for i := range s.shards {
		s.shards[i] = factory()
		s.mirror[i] = make(map[string]bool)
		if n > 1 {
			if t, ok := s.shards[i].(ChangeTracker); ok {
				t.TrackChanges(true)
				s.journaling[i] = true
			}
		}
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedMatcher) Shards() int { return len(s.shards) }

// AddRule assigns the rule to the next shard round-robin. Duplicate
// names are rejected across all shards.
func (s *ShardedMatcher) AddRule(r *Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if s.names[r.Name] {
		return fmt.Errorf("match: duplicate rule %s", r.Name)
	}
	if err := s.shards[s.next%len(s.shards)].AddRule(r); err != nil {
		return err
	}
	s.names[r.Name] = true
	s.next++
	return nil
}

// Insert fans the WME out to every shard concurrently.
func (s *ShardedMatcher) Insert(w *wm.WME) {
	s.broadcast(func(m Matcher) { m.Insert(w) })
}

// Remove fans the retraction out to every shard concurrently.
func (s *ShardedMatcher) Remove(w *wm.WME) {
	s.broadcast(func(m Matcher) { m.Remove(w) })
}

func (s *ShardedMatcher) broadcast(f func(Matcher)) {
	if len(s.shards) == 1 {
		f(s.shards[0])
		return
	}
	var wg sync.WaitGroup
	for _, m := range s.shards {
		wg.Add(1)
		go func(m Matcher) {
			defer wg.Done()
			f(m)
		}(m)
	}
	wg.Wait()
}

// SetMetrics forwards the registry to every shard that accepts one and
// wires the merge-batch histogram.
func (s *ShardedMatcher) SetMetrics(reg *obs.Registry) {
	for _, m := range s.shards {
		if sm, ok := m.(interface{ SetMetrics(*obs.Registry) }); ok {
			sm.SetMetrics(reg)
		}
	}
	if len(s.shards) > 1 {
		s.mergeBatch = reg.Histogram("match_shard_merge_batch", "changes")
	}
}

// TrackChanges enables journaling on the conflict set this matcher
// returns. With multiple shards that set is the cached merged set,
// which is maintained from the per-shard journals and therefore
// journals true deltas; with a single shard the request is forwarded
// to the inner matcher.
func (s *ShardedMatcher) TrackChanges(on bool) {
	s.track = on
	if len(s.shards) == 1 {
		if t, ok := s.shards[0].(ChangeTracker); ok {
			t.TrackChanges(on)
		}
		return
	}
	s.merged.TrackChanges(on)
}

// ConflictSet computes every shard's conflict set concurrently and
// folds each shard's changes since the last call into the cached
// merged set.
func (s *ShardedMatcher) ConflictSet() *ConflictSet {
	if len(s.shards) == 1 {
		return s.shards[0].ConflictSet()
	}
	sets := make([]*ConflictSet, len(s.shards))
	var wg sync.WaitGroup
	for i, m := range s.shards {
		wg.Add(1)
		go func(i int, m Matcher) {
			defer wg.Done()
			sets[i] = m.ConflictSet()
		}(i, m)
	}
	wg.Wait()
	// Journals are drained and applied serially in shard order: the
	// merged set has exactly one writer, and rule partitioning makes
	// the shards' key spaces disjoint, so deltas commute with the cache
	// contents of other shards.
	applied := 0
	for i, cs := range sets {
		applied += s.mergeShard(i, cs)
	}
	if s.mergeBatch != nil {
		s.mergeBatch.Observe(int64(applied))
	}
	return s.merged
}

// mergeShard folds one shard's changes into the merged set and returns
// the number of membership changes applied.
func (s *ShardedMatcher) mergeShard(i int, cs *ConflictSet) int {
	var added []*Instantiation
	var removed []string
	if s.journaling[i] {
		added, removed = cs.TakeChanges()
	} else {
		added = cs.All()
	}
	m := s.mirror[i]
	n := 0
	// Snapshot case: a shard that rebuilds its set from scratch (naive)
	// journals the full membership — no removals and as many additions
	// as members. Live shards can only hit this when the mirror is
	// empty (nothing was removed and every member is newly journaled),
	// where both reconciliations agree. Diff against the mirror so the
	// merged set still only sees true changes.
	if !s.journaling[i] || (len(removed) == 0 && len(added) == cs.Len()) {
		cur := make(map[string]bool, len(added))
		for _, in := range added {
			cur[in.Key()] = true
		}
		// Mirror iteration order only affects the order of commuting
		// Removes, never what the merged set or its journal contains.
		for k := range m {
			if !cur[k] {
				s.merged.Remove(k)
				delete(m, k)
				n++
			}
		}
		for _, in := range added {
			if k := in.Key(); !m[k] {
				s.merged.Add(in)
				m[k] = true
				n++
			}
		}
		return n
	}
	// Delta case: the journal holds raw events and a key may appear in
	// both lists; the shard's current membership resolves the net effect.
	for _, k := range removed {
		if m[k] && !cs.Contains(k) {
			s.merged.Remove(k)
			delete(m, k)
			n++
		}
	}
	for _, in := range added {
		if k := in.Key(); !m[k] && cs.Contains(k) {
			s.merged.Add(in)
			m[k] = true
			n++
		}
	}
	return n
}

var _ Matcher = (*ShardedMatcher)(nil)
