package match

import "sync"

// InterferenceMatrix is the Section 4.1 pairwise rule-interference
// relation over a fixed rule set, computed lazily: each rule's
// read/write sets are derived once up front (O(n)), but a matrix row is
// materialised only on first use, guarded by a sync.Once. Large
// generated programs (cmd/psgen) therefore pay O(n) at construction
// instead of O(n²), while the static batcher, which may consult every
// pair, amortises to the same total.
//
// The matrix is safe for concurrent use: rows are built under their
// Once and never mutated afterwards, so readers on different goroutines
// share them without locks.
type InterferenceMatrix struct {
	index map[string]int
	rw    []RWSet
	once  []sync.Once
	rows  [][]bool
}

// NewInterferenceMatrix builds the lazy matrix over the rule set. Rule
// names are assumed unique (programs are validated upstream).
func NewInterferenceMatrix(rules []*Rule) *InterferenceMatrix {
	m := &InterferenceMatrix{
		index: make(map[string]int, len(rules)),
		rw:    make([]RWSet, len(rules)),
		once:  make([]sync.Once, len(rules)),
		rows:  make([][]bool, len(rules)),
	}
	for i, r := range rules {
		m.index[r.Name] = i
		m.rw[i] = RuleRWSet(r)
	}
	return m
}

// Row returns rule i's interference row, computing it on first use.
// The returned slice is shared and must not be mutated.
func (m *InterferenceMatrix) Row(i int) []bool {
	m.once[i].Do(func() {
		row := make([]bool, len(m.rw))
		for j := range m.rw {
			row[j] = m.rw[i].Interferes(m.rw[j])
		}
		m.rows[i] = row
	})
	return m.rows[i]
}

// Interferes reports interference between rules by name; unknown names
// are conservatively reported as interfering.
func (m *InterferenceMatrix) Interferes(a, b string) bool {
	i, ok := m.index[a]
	if !ok {
		return true
	}
	j, ok := m.index[b]
	if !ok {
		return true
	}
	return m.Row(i)[j]
}
