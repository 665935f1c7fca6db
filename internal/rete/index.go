package rete

import (
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
// The bucket key is a string encoding of the tested values. Encoding
// must be Equal-consistent: wm.Value.Equal treats ints and floats as
// numerically equal across kinds, so both encode through AsFloat.
// The converse need not hold — a key collision only means the full
// test list is re-run on a few extra candidates, never a wrong match —
// so the encoding does not bother escaping separator bytes inside
// strings.

// appendValueKey appends the Equal-consistent encoding of v to b.
// Keys are built into reusable per-node scratch buffers and looked up
// via m[string(buf)] (which the compiler keeps allocation-free), so
// the only allocation per index mutation is the stored map key.
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

// wmeIndexKey builds the bucket key from the candidate-WME side of the
// equality tests, appending into buf (pass the node's scratch buffer
// resliced to [:0]; keep the result as the new scratch). ok is false
// when the WME lacks a tested attribute — runTests would reject it
// against every token, so it is not indexed.
func wmeIndexKey(eq []joinTest, w *wm.WME, buf []byte) (key []byte, ok bool) {
	for _, jt := range eq {
		if !w.HasAttr(jt.ownAttr) {
			return buf, false
		}
		buf = appendValueKey(buf, w.Attr(jt.ownAttr))
		buf = append(buf, 0)
	}
	return buf, true
}

// tokenIndexKey builds the bucket key from the token side of the
// equality tests; base is the token the tests' levelsUp offsets are
// relative to (the join's parent token).
func tokenIndexKey(eq []joinTest, base *token, buf []byte) (key []byte, ok bool) {
	for _, jt := range eq {
		other := base.up(jt.levelsUp).w
		if other == nil || !other.HasAttr(jt.otherAttr) {
			return buf, false
		}
		buf = appendValueKey(buf, other.Attr(jt.otherAttr))
		buf = append(buf, 0)
	}
	return buf, true
}

// tokenBucketRemove deletes t from its bucket, preserving the order of
// the remaining entries (buckets are insertion-ordered so activation
// order never depends on map iteration).
func tokenBucketRemove(idx map[string][]*token, key []byte, t *token) {
	bucket := idx[string(key)]
	for i, x := range bucket {
		if x == t {
			bucket = append(bucket[:i], bucket[i+1:]...)
			if len(bucket) == 0 {
				delete(idx, string(key))
			} else {
				idx[string(key)] = bucket
			}
			return
		}
	}
}

// wmeBucketRemove deletes w from its bucket, preserving order.
func wmeBucketRemove(idx map[string][]*wm.WME, key []byte, w *wm.WME) {
	bucket := idx[string(key)]
	for i, x := range bucket {
		if x == w {
			bucket = append(bucket[:i], bucket[i+1:]...)
			if len(bucket) == 0 {
				delete(idx, string(key))
			} else {
				idx[string(key)] = bucket
			}
			return
		}
	}
}
