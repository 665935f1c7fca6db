package wm

import (
	"sync"

	"pdps/internal/obs"
)

// storeMetrics counts working-memory traffic per class, labeled by
// class name. Handles are cached per class in a sync.Map, so the
// registry mutex is touched only on a class's first access.
type storeMetrics struct {
	reg     *obs.Registry
	classes sync.Map // string → *classCounters
}

type classCounters struct {
	reads  *obs.Counter
	writes *obs.Counter
}

func (m *storeMetrics) forClass(class string) *classCounters {
	if v, ok := m.classes.Load(class); ok {
		return v.(*classCounters)
	}
	cc := &classCounters{
		reads:  m.reg.Counter("wm_reads_total", obs.L("class", class)),
		writes: m.reg.Counter("wm_writes_total", obs.L("class", class)),
	}
	v, _ := m.classes.LoadOrStore(class, cc)
	return v.(*classCounters)
}

func (m *storeMetrics) read(class string) {
	if m != nil {
		m.forClass(class).reads.Inc()
	}
}

func (m *storeMetrics) write(class string) {
	if m != nil {
		m.forClass(class).writes.Inc()
	}
}

// SetMetrics registers per-class read/write counters in reg and starts
// recording into them. Call before the store is shared; a store
// without metrics records nothing.
func (s *Store) SetMetrics(reg *obs.Registry) { s.met = &storeMetrics{reg: reg} }
