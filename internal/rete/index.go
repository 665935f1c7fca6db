package rete

import (
	"slices"
	"strconv"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// This file implements hashed alpha and beta memories (Doorenbos,
// "Production Matching for Large Learning Systems", §2.3): a join or
// negative node whose tests include at least one equality test keeps
// its candidate tokens and WMEs bucketed by the values those tests
// compare, so an activation probes one bucket instead of scanning the
// whole opposite memory. Nodes with no equality test keep the linear
// scan of the basic algorithm.
//
// A bucket's key is the 64-bit FNV-1a hash of a byte encoding of the
// tested values. The encoding must be Equal-consistent: wm.Value.Equal
// treats ints and floats as numerically equal across kinds, so both
// encode through AsFloat. Nothing else needs to hold, and this is the
// whole argument for hashing. Candidates whose values are Equal have
// equal encodings, hence equal hashes, hence share a bucket. A bucket
// may also hold candidates with other values, because two encodings
// hash alike or because the encoding does not escape separator bytes
// inside strings; runTests re-runs every test, equality tests
// included, and rejects each such candidate. A bucket keeps its
// entries in insertion order, so the candidates that pass are exactly
// those an exact-key bucket would hold, in the same relative order:
// a collision costs a few extra test runs (and counts in the probe
// histogram, which records the candidates an activation examined),
// never a wrong match or a different activation order.

// appendValueKey appends the Equal-consistent encoding of v to b.
func appendValueKey(b []byte, v wm.Value) []byte {
	switch v.Kind() {
	case wm.KindInt, wm.KindFloat:
		b = append(b, 'n', ':')
		// Both kinds encode through AsFloat so numerically equal Int
		// and Float land in one bucket; integral values (the common
		// case) take the cheap AppendInt path. The round-trip guard
		// also rejects overflow and NaN, which fall back to AppendFloat.
		f := v.AsFloat()
		if i := int64(f); f == float64(i) {
			return strconv.AppendInt(b, i, 10)
		}
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	case wm.KindBool:
		if v.AsBool() {
			return append(b, 'b', ':', '1')
		}
		return append(b, 'b', ':', '0')
	case wm.KindString:
		b = append(b, 's', ':')
		return append(b, v.AsString()...)
	case wm.KindSymbol:
		b = append(b, 'y', ':')
		return append(b, v.AsString()...)
	default:
		return append(b, '_')
	}
}

// eqSubset returns the equality tests that can drive a hash index.
func eqSubset(tests []joinTest) []joinTest {
	var eq []joinTest
	for _, jt := range tests {
		if jt.op == match.OpEq {
			eq = append(eq, jt)
		}
	}
	return eq
}

// keyBuf is the network's scratch for bucket-key encodings. Each key
// is hashed as soon as it is built, before any nested activation, so
// one buffer serves every node.
type keyBuf []byte

// hash returns the FNV-1a hash of the encoding in k.
func (k keyBuf) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// wme returns the bucket key of the candidate-WME side of the
// equality tests. ok is false when the WME lacks a tested attribute —
// runTests would reject it against every token, so it is not indexed.
func (k *keyBuf) wme(eq []joinTest, w *wm.WME) (h uint64, ok bool) {
	b := (*k)[:0]
	for _, jt := range eq {
		if !w.HasAttr(jt.ownAttr) {
			return 0, false
		}
		b = append(appendValueKey(b, w.Attr(jt.ownAttr)), 0)
	}
	*k = b
	return k.hash(), true
}

// token returns the bucket key of the token side of the equality
// tests; base is the token the tests' levelsUp offsets are relative to
// (the join's parent token).
func (k *keyBuf) token(eq []joinTest, base *token) (h uint64, ok bool) {
	b := (*k)[:0]
	for _, jt := range eq {
		other := base.up(jt.levelsUp).w
		if other == nil || !other.HasAttr(jt.otherAttr) {
			return 0, false
		}
		b = append(appendValueKey(b, other.Attr(jt.otherAttr)), 0)
	}
	*k = b
	return k.hash(), true
}

// bucket holds one hash key's entries in insertion order: the first
// inline, so a bucket of one costs only its map slot, and the rest in
// a slice kept through the bucket's life. Entries are never the zero T.
type bucket[T comparable] struct {
	first T
	more  *[]T
}

func (b bucket[T]) len() int {
	var zero T
	switch {
	case b.first == zero:
		return 0
	case b.more == nil:
		return 1
	}
	return 1 + len(*b.more)
}

func (b bucket[T]) at(i int) T {
	if i == 0 {
		return b.first
	}
	return (*b.more)[i-1]
}

// bucketAdd appends x to the bucket under h.
func bucketAdd[T comparable](idx map[uint64]bucket[T], h uint64, x T) {
	b := idx[h]
	switch {
	case b.len() == 0:
		idx[h] = bucket[T]{first: x}
	case b.more == nil:
		idx[h] = bucket[T]{first: b.first, more: &[]T{x}}
	default:
		*b.more = append(*b.more, x)
	}
}

// bucketRemove deletes x from the bucket under h, keeping the order of
// the remaining entries (activation order never depends on map
// iteration), and drops the bucket once it is empty.
func bucketRemove[T comparable](idx map[uint64]bucket[T], h uint64, x T) {
	b := idx[h]
	if b.first == x {
		if b.len() <= 1 {
			delete(idx, h)
			return
		}
		b.first = (*b.more)[0]
		idx[h] = b
		x = b.first
	}
	if b.more != nil {
		if i := slices.Index(*b.more, x); i >= 0 {
			*b.more = slices.Delete(*b.more, i, i+1)
		}
	}
}
