package wm

import (
	"slices"
	"strings"
)

// WME is a working memory element: a tuple of a class (relation) name
// and attribute/value pairs. WMEs are immutable once created; a modify
// operation produces a new WME carrying the same ID but a fresh time
// tag, so matchers can treat modify as remove-then-add.
//
// The attributes are one slice of (name, value) pairs sorted by name,
// each name once — the order every rendering and codec writes them in.
// The slice is written only while its WME is being built — by
// attrsFromMap, WithAttrs and the snapshot and delta decoder — and
// never after the WME is handed out. Versions may therefore share one slice: the
// version Store.Apply installs adopts the slice of the WME it was given
// instead of copying it.
type WME struct {
	// ID is the stable identity of the element across modifications.
	ID int64
	// TimeTag is the recency counter assigned when this version
	// entered working memory; conflict-resolution strategies such as
	// LEX and MEA order instantiations by it.
	TimeTag uint64
	// Class is the relation the element belongs to.
	Class string

	attrs []attr
}

// attr is one attribute of a WME.
type attr struct {
	name string
	val  Value
}

// NewWME builds a detached WME (not yet in any store) with the given
// class and attributes. The attributes are copied.
func NewWME(class string, attrs map[string]Value) *WME {
	return &WME{Class: class, attrs: attrsFromMap(attrs)}
}

// attrsFromMap returns the map's attributes as a sorted slice.
func attrsFromMap(m map[string]Value) []attr {
	a := make([]attr, 0, len(m))
	for k, v := range m {
		a = append(a, attr{k, v})
	}
	slices.SortFunc(a, byName)
	return a
}

func byName(x, y attr) int { return strings.Compare(x.name, y.name) }

// find returns the index of the named attribute and whether it is
// present. It scans: comparing names for equality costs less than a
// binary search, which must order them, on tuples of up to about 16
// attributes (BenchmarkAttr), and working-memory tuples are narrower.
func (w *WME) find(name string) (int, bool) {
	for i := range w.attrs {
		if w.attrs[i].name == name {
			return i, true
		}
	}
	return 0, false
}

// Attr returns the value of the named attribute, or the nil value if
// the attribute is absent.
func (w *WME) Attr(name string) Value {
	if i, ok := w.find(name); ok {
		return w.attrs[i].val
	}
	return Value{}
}

// HasAttr reports whether the attribute is present.
func (w *WME) HasAttr(name string) bool {
	_, ok := w.find(name)
	return ok
}

// Attrs returns a copy of the attributes as a map.
func (w *WME) Attrs() map[string]Value {
	m := make(map[string]Value, len(w.attrs))
	for _, a := range w.attrs {
		m[a.name] = a.val
	}
	return m
}

// WithAttrs returns a new WME that carries this WME's identity and
// class but with the given attribute updates applied on top of the
// existing attributes. Setting an attribute to the nil value deletes it.
func (w *WME) WithAttrs(updates map[string]Value) *WME {
	var buf [8]attr
	ups := buf[:0]
	size := len(w.attrs)
	for k, v := range updates {
		ups = append(ups, attr{k, v})
		switch _, ok := w.find(k); {
		case ok && v.IsNil():
			size--
		case !ok && !v.IsNil():
			size++
		}
	}
	slices.SortFunc(ups, byName)
	out := make([]attr, 0, size)
	old := w.attrs
	for _, u := range ups {
		for len(old) > 0 && old[0].name < u.name {
			out = append(out, old[0])
			old = old[1:]
		}
		if len(old) > 0 && old[0].name == u.name {
			old = old[1:]
		}
		if !u.val.IsNil() {
			out = append(out, u)
		}
	}
	out = append(out, old...)
	return &WME{ID: w.ID, Class: w.Class, attrs: out}
}

// EqualContent reports whether two WMEs have the same class and
// attribute values (identity and time tags are ignored).
func (w *WME) EqualContent(o *WME) bool {
	if w.Class != o.Class || len(w.attrs) != len(o.attrs) {
		return false
	}
	for i, a := range w.attrs {
		if b := o.attrs[i]; a.name != b.name || !a.val.Equal(b.val) {
			return false
		}
	}
	return true
}

// String renders the WME in rule-language syntax, e.g.
// (part ^id 3 ^status ready) with attributes in sorted order.
func (w *WME) String() string { return string(w.AppendTo(nil)) }

// AppendTo appends the String rendering of the WME to b and returns
// the extended buffer. It is the one renderer of WME text: commit
// fingerprints, the trace checker and String all go through it.
func (w *WME) AppendTo(b []byte) []byte {
	b = append(b, '(')
	b = append(b, w.Class...)
	for _, a := range w.attrs {
		b = append(b, " ^"...)
		b = append(b, a.name...)
		b = append(b, ' ')
		b = a.val.AppendTo(b)
	}
	return append(b, ')')
}
