package engine_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/match"
	"pdps/internal/wm"
	"pdps/internal/workload"
)

var updateSegments = flag.Bool("update", false, "rewrite the segment golden files")

// valuesProgram joins items that carry every value kind — the floats
// and strings with the least ordinary renderings among them — to their
// labels, copies the values into a new tuple, and derives a scaled
// float from each copy, so its commit records hold strings, floats,
// symbols and booleans in both the fingerprints and the deltas.
func valuesProgram() engine.Program {
	v := func(name string) match.Expr { return match.VarExpr{Name: name} }
	mark := &match.Rule{
		Name: "mark",
		Conditions: []match.Condition{
			{Class: "item", Tests: []match.AttrTest{
				{Attr: "k", Op: match.OpEq, Var: "x"},
				{Attr: "seen", Op: match.OpEq, Const: wm.Bool(false)},
				{Attr: "name", Op: match.OpEq, Var: "n"},
				{Attr: "w", Op: match.OpEq, Var: "w"},
			}},
			{Class: "label", Tests: []match.AttrTest{
				{Attr: "k", Op: match.OpEq, Var: "x"},
				{Attr: "tag", Op: match.OpEq, Var: "t"},
			}},
		},
		Actions: []match.Action{
			{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
				{Attr: "seen", Expr: match.ConstExpr{Val: wm.Bool(true)}},
			}},
			{Kind: match.ActMake, Class: "echo", Assigns: []match.AttrAssign{
				{Attr: "k", Expr: v("x")}, {Attr: "name", Expr: v("n")},
				{Attr: "w", Expr: v("w")}, {Attr: "tag", Expr: v("t")},
			}},
		},
	}
	scale := &match.Rule{
		Name: "scale",
		Conditions: []match.Condition{
			{Class: "echo", Tests: []match.AttrTest{
				{Attr: "k", Op: match.OpEq, Var: "x"},
				{Attr: "w", Op: match.OpEq, Var: "w"},
			}},
			{Class: "scaled", Negated: true, Tests: []match.AttrTest{
				{Attr: "k", Op: match.OpEq, Var: "x"},
			}},
		},
		Actions: []match.Action{
			{Kind: match.ActMake, Class: "scaled", Assigns: []match.AttrAssign{
				{Attr: "k", Expr: v("x")},
				{Attr: "w", Expr: match.BinExpr{Op: match.ArithMul, L: v("w"), R: match.ConstExpr{Val: wm.Float(1.5)}}},
				{Attr: "note", Expr: match.ConstExpr{Val: wm.Str("×1.5 \"scaled\"\n")}},
			}},
		},
	}
	names := []string{"plain", `say "hi"`, "line\nbreak\ttab", "ünïcødé", "bad utf8 \xff", ""}
	floats := []float64{2.5, 0.1, math.Copysign(0, -1), 1e21, 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), -1234.5678}
	p := engine.Program{Rules: []*match.Rule{mark, scale}}
	for i, f := range floats {
		p.WMEs = append(p.WMEs,
			engine.InitialWME{Class: "item", Attrs: map[string]wm.Value{
				"k": wm.Int(int64(i)), "seen": wm.Bool(false),
				"name": wm.Str(names[i%len(names)]), "w": wm.Float(f),
			}},
			engine.InitialWME{Class: "label", Attrs: map[string]wm.Value{
				"k": wm.Int(int64(i)), "tag": wm.Sym("tag-" + string(rune('a'+i))),
			}})
	}
	return p
}

// TestSegmentGolden pins the bytes a seeded durable Single run writes
// to its log segment: the seed record, then one record per commit
// carrying rule, instantiation key, WME fingerprints and delta. Any
// change in how WMEs are rendered or encoded shows as a byte
// difference. Regenerate with -update.
func TestSegmentGolden(t *testing.T) {
	cases := []struct {
		name    string
		prog    engine.Program
		firings int
	}{
		{"joinheavy", workload.JoinHeavy(20, 4), 20},
		{"values", valuesProgram(), 18},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			prog := tc.prog
			f, restore, _, err := engine.OpenDurable(dir, &prog)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := engine.NewSingle(prog, engine.Options{Storage: f, Restore: restore})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if res.Firings != tc.firings {
				t.Fatalf("firings = %d, want %d", res.Firings, tc.firings)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("data directory holds %v (%v), want one segment", segs, err)
			}
			got, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("..", "..", "testdata", "golden", "segment_"+tc.name+".wal")
			if *updateSegments {
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (regenerate with go test -run TestSegmentGolden -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("segment bytes diverged from %s (%d bytes, want %d; regenerate with -update if intended)",
					goldenPath, len(got), len(want))
			}
		})
	}
}
