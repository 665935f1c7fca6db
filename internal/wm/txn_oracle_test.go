package wm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// oracleTxn is the map-based transaction Txn replaced: staged versions
// and shadowed store versions keyed by ID, with the add order kept
// separately. It is the reference TestTxnMatchesOracle runs Txn
// against.
type oracleTxn struct {
	store   *Store
	staged  map[int64]*WME
	removed map[int64]*WME
	order   []int64
}

func beginOracle(s *Store) *oracleTxn {
	return &oracleTxn{store: s, staged: map[int64]*WME{}, removed: map[int64]*WME{}}
}

func (t *oracleTxn) Get(id int64) (*WME, bool) {
	if w, ok := t.staged[id]; ok {
		return w, true
	}
	if _, gone := t.removed[id]; gone {
		return nil, false
	}
	return t.store.Get(id)
}

func (t *oracleTxn) ByClass(class string) []*WME {
	seen := make(map[int64]bool)
	var out []*WME
	for _, w := range t.staged {
		if w.Class == class {
			out = append(out, w)
			seen[w.ID] = true
		}
	}
	for _, w := range t.store.ByClass(class) {
		if seen[w.ID] {
			continue
		}
		if _, gone := t.removed[w.ID]; gone {
			continue
		}
		if _, shadowed := t.staged[w.ID]; shadowed {
			continue
		}
		out = append(out, w)
	}
	sortWMEs(out)
	return out
}

func (t *oracleTxn) Insert(class string, attrs map[string]Value) *WME {
	w := NewWME(class, attrs)
	w.ID = t.store.allocID()
	t.staged[w.ID] = w
	t.order = append(t.order, w.ID)
	return w
}

func (t *oracleTxn) Remove(id int64) error {
	if _, ok := t.staged[id]; ok {
		delete(t.staged, id)
		if _, wasStoreWME := t.removed[id]; wasStoreWME {
			return nil
		}
		for i, oid := range t.order {
			if oid == id {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
		return nil
	}
	w, ok := t.store.Get(id)
	if !ok {
		return fmt.Errorf("wm: txn remove: no WME with id %d", id)
	}
	t.removed[id] = w
	return nil
}

func (t *oracleTxn) Modify(id int64, updates map[string]Value) (*WME, error) {
	cur, ok := t.Get(id)
	if !ok {
		return nil, fmt.Errorf("wm: txn modify: no WME with id %d", id)
	}
	n := cur.WithAttrs(toAssigns(updates))
	if _, isStaged := t.staged[id]; !isStaged {
		t.removed[id] = cur
		t.order = append(t.order, id)
	}
	t.staged[id] = n
	return n, nil
}

func (t *oracleTxn) Delta() *Delta {
	d := &Delta{}
	for _, w := range t.removed {
		d.Removes = append(d.Removes, w)
	}
	sortWMEs(d.Removes)
	for _, id := range t.order {
		if w, ok := t.staged[id]; ok {
			d.Adds = append(d.Adds, w)
		}
	}
	return d
}

func (t *oracleTxn) Pending() int { return len(t.staged) + len(t.removed) }

// renderWMEs renders WMEs with identity and time tag, so two stores
// built in lockstep compare equal exactly when their tuples do.
func renderWMEs(ws []*WME) string {
	var b strings.Builder
	for _, w := range ws {
		fmt.Fprintf(&b, "%d@%d%s ", w.ID, w.TimeTag, w)
	}
	return b.String()
}

func renderDelta(d *Delta) string {
	return "-[" + renderWMEs(d.Removes) + "] +[" + renderWMEs(d.Adds) + "]"
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestTxnMatchesOracle runs seeded random Insert/Modify/Remove
// sequences through Txn and the map-based oracle, each over its own
// store built in lockstep so IDs agree, and compares Get, ByClass,
// Pending, Delta and every error after each operation, then the
// committed deltas and stores. The sequences draw IDs from the store's
// tuples, the transaction's own inserts and one absent ID, so double
// removes, removes after modifies, modifies of staged inserts and
// modifies after removes all occur; the test counts them to be sure.
func TestTxnMatchesOracle(t *testing.T) {
	classes := []string{"a", "b", "c"}
	seen := map[string]int{}
	r := rand.New(rand.NewSource(38))
	for seq := 0; seq < 3000; seq++ {
		s, o := NewStore(), NewStore()
		var ids []int64
		for i, n := 0, r.Intn(5); i < n; i++ {
			cls, a := classes[r.Intn(len(classes))], attrs("v", r.Intn(3), "k", i)
			ids = append(ids, s.Insert(cls, a).ID)
			o.Insert(cls, a)
		}
		tx, ox := s.Begin(), beginOracle(o)
		ids = append(ids, 1000) // never allocated
		history := map[int64]string{}
		for op, n := 0, 1+r.Intn(10); op < n; op++ {
			id := ids[r.Intn(len(ids))]
			var desc, got, want string
			switch r.Intn(3) {
			case 0:
				cls, a := classes[r.Intn(len(classes))], attrs("v", r.Intn(3))
				w := tx.Insert(cls, toAssigns(a))
				ow := ox.Insert(cls, a)
				got, want = renderWMEs([]*WME{w}), renderWMEs([]*WME{ow})
				ids = append(ids, w.ID)
				history[w.ID] = "insert"
				desc = "insert"
			case 1:
				up := attrs("v", r.Intn(3))
				if r.Intn(4) == 0 {
					up["k"] = Nil()
				}
				w, err := tx.Modify(id, toAssigns(up))
				ow, oerr := ox.Modify(id, up)
				got, want = errString(err), errString(oerr)
				if err == nil && oerr == nil {
					got, want = renderWMEs([]*WME{w}), renderWMEs([]*WME{ow})
				}
				desc = "modify after " + history[id]
				if err == nil {
					history[id] = "modify"
				}
			default:
				err, oerr := tx.Remove(id), ox.Remove(id)
				got, want = errString(err), errString(oerr)
				desc = "remove after " + history[id]
				if err == nil {
					history[id] = "remove"
				}
			}
			seen[desc]++
			if got != want {
				t.Fatalf("seq %d op %d (%s of %d): got %s, oracle %s", seq, op, desc, id, got, want)
			}
			for _, id := range ids {
				w, ok := tx.Get(id)
				ow, ook := ox.Get(id)
				if ok != ook || (ok && renderWMEs([]*WME{w}) != renderWMEs([]*WME{ow})) {
					t.Fatalf("seq %d op %d (%s): Get(%d) = %v %v, oracle %v %v", seq, op, desc, id, w, ok, ow, ook)
				}
			}
			for _, c := range classes {
				if got, want := renderWMEs(tx.ByClass(c)), renderWMEs(ox.ByClass(c)); got != want {
					t.Fatalf("seq %d op %d (%s): ByClass(%s) = %s, oracle %s", seq, op, desc, c, got, want)
				}
			}
			if got, want := tx.Pending(), ox.Pending(); got != want {
				t.Fatalf("seq %d op %d (%s): Pending = %d, oracle %d", seq, op, desc, got, want)
			}
			if got, want := renderDelta(tx.Delta()), renderDelta(ox.Delta()); got != want {
				t.Fatalf("seq %d op %d (%s): Delta = %s, oracle %s", seq, op, desc, got, want)
			}
		}
		d, err := tx.Commit()
		od, oerr := o.Apply(ox.Delta())
		if errString(err) != errString(oerr) {
			t.Fatalf("seq %d: Commit error %v, oracle %v", seq, err, oerr)
		}
		if err == nil && renderDelta(d) != renderDelta(od) {
			t.Fatalf("seq %d: committed %s, oracle %s", seq, renderDelta(d), renderDelta(od))
		}
		if got, want := renderWMEs(s.All()), renderWMEs(o.All()); got != want {
			t.Fatalf("seq %d: store %s, oracle %s", seq, got, want)
		}
	}
	for _, must := range []string{"remove after remove", "remove after modify", "modify after insert", "modify after remove"} {
		if seen[must] == 0 {
			t.Errorf("no %q in the sequences (saw %v)", must, seen)
		}
	}
}
