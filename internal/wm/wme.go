package wm

import (
	"slices"
	"sort"
)

// WME is a working memory element: a tuple of a class (relation) name
// and attribute/value pairs. WMEs are immutable once created; a modify
// operation produces a new WME carrying the same ID but a fresh time
// tag, so matchers can treat modify as remove-then-add.
//
// The attribute map is written only while its WME is being built —
// by copyAttrs, WithAttrs and the snapshot decoder — and never after
// the WME is handed out. Versions may therefore share one map: the
// version Store.Apply installs adopts the map of the WME it was given
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

	attrs map[string]Value
}

// NewWME builds a detached WME (not yet in any store) with the given
// class and attributes. The attribute map is copied.
func NewWME(class string, attrs map[string]Value) *WME {
	return &WME{Class: class, attrs: copyAttrs(attrs)}
}

func copyAttrs(attrs map[string]Value) map[string]Value {
	c := make(map[string]Value, len(attrs))
	for k, v := range attrs {
		c[k] = v
	}
	return c
}

// Attr returns the value of the named attribute, or the nil value if
// the attribute is absent.
func (w *WME) Attr(name string) Value { return w.attrs[name] }

// HasAttr reports whether the attribute is present.
func (w *WME) HasAttr(name string) bool {
	_, ok := w.attrs[name]
	return ok
}

// AttrNames returns the attribute names in sorted order.
func (w *WME) AttrNames() []string {
	names := make([]string, 0, len(w.attrs))
	for k := range w.attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Attrs returns a copy of the attribute map.
func (w *WME) Attrs() map[string]Value { return copyAttrs(w.attrs) }

// WithAttrs returns a new WME that carries this WME's identity and
// class but with the given attribute updates applied on top of the
// existing attributes. Setting an attribute to the nil value deletes it.
func (w *WME) WithAttrs(updates map[string]Value) *WME {
	n := &WME{ID: w.ID, Class: w.Class, attrs: copyAttrs(w.attrs)}
	for k, v := range updates {
		if v.IsNil() {
			delete(n.attrs, k)
			continue
		}
		n.attrs[k] = v
	}
	return n
}

// EqualContent reports whether two WMEs have the same class and
// attribute values (identity and time tags are ignored).
func (w *WME) EqualContent(o *WME) bool {
	if w.Class != o.Class || len(w.attrs) != len(o.attrs) {
		return false
	}
	for k, v := range w.attrs {
		ov, ok := o.attrs[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// String renders the WME in rule-language syntax, e.g.
// (part ^id 3 ^status ready) with attributes in sorted order.
func (w *WME) String() string { return string(w.AppendTo(nil)) }

// sortedNamesOnStack is how many attribute names AppendTo sorts
// without allocating; wider tuples sort a heap slice.
const sortedNamesOnStack = 16

// AppendTo appends the String rendering of the WME to b and returns
// the extended buffer. It is the one renderer of WME text: commit
// fingerprints, the trace checker and String all go through it.
func (w *WME) AppendTo(b []byte) []byte {
	var stack [sortedNamesOnStack]string
	names := stack[:0]
	for k := range w.attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	b = append(b, '(')
	b = append(b, w.Class...)
	for _, k := range names {
		b = append(b, " ^"...)
		b = append(b, k...)
		b = append(b, ' ')
		b = w.attrs[k].AppendTo(b)
	}
	return append(b, ')')
}
