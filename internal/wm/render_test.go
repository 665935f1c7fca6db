package wm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// oracleValue is the reference rendering of a value, one strconv
// formatter per kind.
func oracleValue(v Value) string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindSymbol:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// oracleWME is the reference rendering of a WME: fmt over the sorted
// attribute names of its Attrs map, the form every trace, storage
// record and golden file was written in before AppendTo.
func oracleWME(w *WME) string {
	m := w.Attrs()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "(%s", w.Class)
	for _, k := range names {
		fmt.Fprintf(&b, " ^%s %s", k, oracleValue(m[k]))
	}
	b.WriteByte(')')
	return b.String()
}

// renderStrings are payloads that exercise quoting: quotes,
// backslashes, control bytes, non-ASCII and invalid UTF-8.
var renderStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, "line\nbreak\ttab\r", "\x00\x07\x7f",
	"ünïcødé", "日本語", "emoji \U0001F600", "bad utf8 \xff\xfe", " ", "'single'",
}

// renderFloats are the floats whose shortest 'g' form is unusual.
var renderFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e20, 1e21, -1e21, 1e-7, 5e-324,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// randomValue draws a value of any kind, including the unknown kind.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(8) {
	case 0:
		return Nil()
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Float(renderFloats[r.Intn(len(renderFloats))])
	case 3:
		return Float(math.Float64frombits(r.Uint64()))
	case 4:
		return Str(renderStrings[r.Intn(len(renderStrings))])
	case 5:
		return Sym(fmt.Sprintf("sym%d", r.Intn(100)))
	case 6:
		return Bool(r.Intn(2) == 0)
	}
	return Value{kind: Kind(6 + r.Intn(250))}
}

// randomWME builds a WME with up to maxAttrs attributes; names are
// drawn from a small pool so ties in the sort order cannot hide.
func randomWME(r *rand.Rand, maxAttrs int) *WME {
	n := r.Intn(maxAttrs + 1)
	a := make(map[string]Value, n)
	for len(a) < n {
		a[fmt.Sprintf("a%d", r.Intn(4*maxAttrs+1))] = randomValue(r)
	}
	return NewWME(fmt.Sprintf("c%d", r.Intn(10)), a)
}

// checkRender compares String, AppendTo onto a non-empty prefix, and
// every Value rendering with the oracle, and checks that Attr and
// HasAttr find every attribute and no absent one.
func checkRender(t *testing.T, w *WME) {
	t.Helper()
	want := oracleWME(w)
	if got := w.String(); got != want {
		t.Fatalf("String() = %q, oracle %q", got, want)
	}
	if got := string(w.AppendTo([]byte("prefix"))); got != "prefix"+want {
		t.Fatalf("AppendTo(prefix) = %q, oracle %q", got, "prefix"+want)
	}
	for k, v := range w.Attrs() {
		if got := v.String(); got != oracleValue(v) {
			t.Fatalf("Value.String() = %q, oracle %q", got, oracleValue(v))
		}
		if got := w.Attr(k); !w.HasAttr(k) || got.Kind() != v.Kind() || got.String() != v.String() {
			t.Fatalf("Attr(%q) = %v, want %v", k, got, v)
		}
		if w.HasAttr(k+"\x00") || w.HasAttr("\x00"+k) {
			t.Fatalf("HasAttr found an absent name near %q", k)
		}
	}
}

// TestAppendToMatchesOracle pins AppendTo and String byte for byte to
// the reference renderer over seeded random WMEs, covering every value
// kind and tuples up to 32 attributes wide.
func TestAppendToMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 20000; i++ {
		checkRender(t, randomWME(r, 32))
	}
}

// TestAppendToEdgeCases renders each hard float and string on its own,
// the empty tuple, and a wide tuple.
func TestAppendToEdgeCases(t *testing.T) {
	checkRender(t, NewWME("empty", nil))
	for _, f := range renderFloats {
		checkRender(t, NewWME("f", map[string]Value{"v": Float(f)}))
	}
	for _, s := range renderStrings {
		checkRender(t, NewWME("s", map[string]Value{"v": Str(s), "y": Sym(s)}))
	}
	wide := make(map[string]Value)
	for i := 0; i < 48; i++ {
		wide[fmt.Sprintf("w%03d", 48-i)] = Int(int64(i))
	}
	checkRender(t, NewWME("wide", wide))
	cases := map[string]*WME{
		"(empty)":                    NewWME("empty", nil),
		`(t ^a nil ^b -0 ^c 1e+21)`:  NewWME("t", map[string]Value{"a": Nil(), "b": Float(math.Copysign(0, -1)), "c": Float(1e21)}),
		`(t ^n NaN ^p +Inf ^q -Inf)`: NewWME("t", map[string]Value{"n": Float(math.NaN()), "p": Float(math.Inf(1)), "q": Float(math.Inf(-1))}),
		`(t ^s "a\"b\n\xff")`:        NewWME("t", map[string]Value{"s": Str("a\"b\n\xff")}),
		`(t ^x 5e-324 ^y true)`:      NewWME("t", map[string]Value{"x": Float(5e-324), "y": Bool(true)}),
	}
	for want, w := range cases {
		if got := w.String(); got != want {
			t.Errorf("String() = %s, want %s", got, want)
		}
	}
}

// TestWithAttrsMatchesMap applies seeded random updates, to present
// and absent names, nil ones included, and compares the result with
// the same updates applied to the Attrs map; checkRender then holds
// the merged slice to sorted, unique names.
func TestWithAttrsMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for i := 0; i < 5000; i++ {
		w := randomWME(r, 16)
		want := w.Attrs()
		ups := make(map[string]Value)
		for j, n := 0, r.Intn(16); j < n; j++ {
			ups[fmt.Sprintf("a%d", r.Intn(65))] = randomValue(r)
		}
		for k, v := range ups {
			if v.IsNil() {
				delete(want, k)
			} else {
				want[k] = v
			}
		}
		n := w.WithAttrs(ups)
		if n.String() != NewWME(w.Class, want).String() {
			t.Fatalf("%v.WithAttrs(%v) = %v, want %v", w, ups, n, NewWME(w.Class, want))
		}
		checkRender(t, n)
	}
}

// FuzzWMEAppendTo differentially tests AppendTo and String against the
// reference renderer on fuzzed class, names and values of every kind.
func FuzzWMEAppendTo(f *testing.F) {
	f.Add("part", "name", int64(-7), 2.5, `q"u\o`+"\n", true)
	f.Add("", "", int64(0), math.Copysign(0, -1), "", false)
	f.Add("t", "ü", int64(math.MinInt64), 1e21, "\xff", true)
	f.Add("t", "x", int64(1), math.NaN(), "日本", false)
	f.Fuzz(func(t *testing.T, class, name string, i int64, fl float64, s string, b bool) {
		w := NewWME(class, map[string]Value{
			name:        Str(s),
			name + "f":  Float(fl),
			name + "i":  Int(i),
			name + "y":  Sym(s),
			"b" + name:  Bool(b),
			"nil" + s:   Nil(),
			s + "float": Float(math.Float64frombits(uint64(i))),
		})
		checkRender(t, w)
	})
}
