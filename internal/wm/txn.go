package wm

import (
	"fmt"
	"slices"
)

// Txn stages the RHS effects of one production firing. Reads see the
// transaction's own staged changes layered over the underlying store
// (read-your-writes); nothing touches the shared store until Commit,
// which applies all changes as one atomic Delta — the paper's
// requirement that "the WM content is atomically updated only when a
// production reaches its commit point" (Section 4.2).
//
// A firing stages a handful of changes, so both stages are plain
// slices searched by ID.
//
// A Txn is used by a single goroutine; the store it commits into is
// safe for concurrent use.
type Txn struct {
	store *Store
	// adds holds staged inserts and modified versions, one per ID, in
	// first-staged order, which is the order the delta adds them.
	adds []*WME
	// removes holds the store versions shadowed by Remove or Modify,
	// one per ID.
	removes []*WME
	// buf backs the first two adds and the first two removes, as many
	// as most firings stage.
	buf  [4]*WME
	done bool
}

// Begin starts a transaction over the store.
func (s *Store) Begin() *Txn {
	t := &Txn{store: s}
	t.adds, t.removes = t.buf[:0:2], t.buf[2:2:4]
	return t
}

// indexOf returns the position of the WME with the given ID in ws, or
// -1.
func indexOf(ws []*WME, id int64) int {
	for i, w := range ws {
		if w.ID == id {
			return i
		}
	}
	return -1
}

// Get returns the WME with the given ID as seen by this transaction.
func (t *Txn) Get(id int64) (*WME, bool) {
	if i := indexOf(t.adds, id); i >= 0 {
		return t.adds[i], true
	}
	if indexOf(t.removes, id) >= 0 {
		return nil, false
	}
	return t.store.Get(id)
}

// ByClass returns the WMEs of a class as seen by this transaction,
// ordered by ID.
func (t *Txn) ByClass(class string) []*WME {
	var out []*WME
	for _, w := range t.adds {
		if w.Class == class {
			out = append(out, w)
		}
	}
	for _, w := range t.store.ByClass(class) {
		if indexOf(t.adds, w.ID) < 0 && indexOf(t.removes, w.ID) < 0 {
			out = append(out, w)
		}
	}
	sortWMEs(out)
	return out
}

// Insert stages a new WME. The returned WME has a real (reserved) ID
// but is not visible outside the transaction until commit.
func (t *Txn) Insert(class string, attrs []AttrValue) *WME {
	w := &WME{ID: t.store.allocID(), Class: class, attrs: sortAssigns(make([]attr, 0, len(attrs)), attrs)}
	t.adds = append(t.adds, w)
	return w
}

// Remove stages deletion of the WME with the given ID. Removing a
// staged insert unstages it; removing a modified store WME keeps the
// shadowed version, so the delta still deletes it.
func (t *Txn) Remove(id int64) error {
	if i := indexOf(t.adds, id); i >= 0 {
		t.adds = append(t.adds[:i], t.adds[i+1:]...)
		return nil
	}
	w, ok := t.store.Get(id)
	if !ok {
		return fmt.Errorf("wm: txn remove: no WME with id %d", id)
	}
	if i := indexOf(t.removes, id); i >= 0 {
		t.removes[i] = w // a second Remove of the same store WME
		return nil
	}
	t.removes = append(t.removes, w)
	return nil
}

// Modify stages an attribute update of the WME with the given ID and
// returns the staged new version. Nil values delete attributes.
func (t *Txn) Modify(id int64, updates []AttrValue) (*WME, error) {
	if i := indexOf(t.adds, id); i >= 0 {
		n := t.adds[i].WithAttrs(updates)
		t.adds[i] = n
		return n, nil
	}
	if indexOf(t.removes, id) >= 0 {
		return nil, fmt.Errorf("wm: txn modify: no WME with id %d", id)
	}
	cur, ok := t.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("wm: txn modify: no WME with id %d", id)
	}
	n := cur.WithAttrs(updates)
	t.removes = append(t.removes, cur)
	t.adds = append(t.adds, n)
	return n, nil
}

// Delta returns the pending changes as a Delta without committing.
func (t *Txn) Delta() *Delta {
	d := &Delta{Removes: slices.Clone(t.removes), Adds: slices.Clone(t.adds)}
	sortWMEs(d.Removes)
	return d
}

// Commit applies the staged changes to the store atomically and
// returns the applied delta (with final time tags). Committing an
// already-finished transaction is an error.
func (t *Txn) Commit() (*Delta, error) {
	if t.done {
		return nil, fmt.Errorf("wm: commit of finished transaction")
	}
	t.done = true
	sortWMEs(t.removes)
	return t.store.Apply(&Delta{Removes: t.removes, Adds: t.adds})
}

// Abort discards the staged changes. It is safe to call multiple times.
func (t *Txn) Abort() { t.done = true }

// Pending reports the number of staged operations.
func (t *Txn) Pending() int { return len(t.adds) + len(t.removes) }
