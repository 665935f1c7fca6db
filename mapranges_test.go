package pdps_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mapRangeAllowList names every range over a map in the packages whose
// iteration order could reach a firing order, a schedule or a byte on
// disk, with the reason its order cannot. An entry is
// "package.Func: range expr"; Func is Recv.Method for a method.
var mapRangeAllowList = map[string]string{
	"engine.Parallel.resolveCommit: range e.inflight":   "sets each flight's own stale flag; no flight reads another's",
	"engine.Parallel.spared: range e.inflight":          "finds the one flight holding the victim's transaction ID",
	"engine.runtime.refract: range rt.fired":            "deletes dead refraction entries; the survivors do not depend on the order",
	"match.Bindings.Clone: range b":                     "copies a map",
	"match.ConflictSet.All: range cs.byKey":             "collects keys that are sorted before use",
	"match.ConflictSet.RemoveIf: range cs.byKey":        "TREAT's removal: the removed set does not depend on the order, and a consumer of the journal resolves keys by Contains",
	"match.ConflictSet.TrackChanges: range cs.byKey":    "journals the initial membership; the agenda ranks it by the strategy's total order and wave growth sorts by key",
	"match.Naive.ByClass: range n.byClass[class]":       "collects tuples that are sorted by ID before return",
	"match.joinCols: range m":                           "collects names that are sorted before the join",
	"match.writesOverlap: range other":                  "an any-of test",
	"match.writesOverlap: range w":                      "an any-of test",
	"rete.Network.Dot: range n.alphaByKey":              "collects keys that are sorted before rendering",
	"rete.Network.Plans: range n.chains":                "collects rule names that are sorted before use",
	"rete.Network.Topology: range er.buckets":           "counts nodes",
	"rete.Network.Topology: range lv.eqRoots":           "counts nodes",
	"rete.Network.Topology: range n.alphaByKey":         "counts nodes",
	"rete.Network.Topology: range n.betaLevels":         "counts nodes",
	"rete.Network.Topology: range n.disc":               "counts nodes",
	"rete.Network.compileChain: range srcBound":         "fills a map",
	"rete.Network.countSharedAlpha: range n.disc":       "counts nodes",
	"rete.Network.updatePlanGauges: range n.betaLevels": "counts nodes",
	"rete.Network.updatePlanGauges: range n.chains":     "sums the plan-cost gauge: the float sum's rounding may follow the order, no firing does",
	"rete.joinNode.onToken: range j.amem.items":         "open: ROADMAP item 23",
	"rete.negNode.onToken: range n.amem.items":          "open: ROADMAP item 23",
	"rete.placeCost: range bound":                       "copies a map",
	"rete.prodNode.activateToken: range p.bindings":     "fills a map",
	"rete.walkDisc: range er.buckets":                   "visits nodes for countSharedAlpha, which counts them",
	"rete.walkDisc: range lv.eqRoots":                   "visits nodes for countSharedAlpha, which counts them",
	"wm.Store.All: range s.byID":                        "collects tuples that are sorted before return",
	"wm.Store.ByClass: range cls":                       "collects tuples that are sorted before return",
	"wm.Store.Clone: range s.byClass":                   "copies maps",
	"wm.attrsFromMap: range m":                          "collects attributes that are sorted by name before use",
}

// TestMapRangesAllowListed is the determinism net. Go randomises map
// iteration, so a range over a map in the matcher, the engine, the lock
// manager or working memory may make a run depend on more than its
// program, its strategy and its schedule. The test type-checks those
// packages from source, lists every range over a map in their non-test
// files, and fails on one the allow-list does not name — and on an
// allow-list entry that names nothing, so the list stays exact.
func TestMapRangesAllowListed(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	found := make(map[string]token.Position)
	for _, pkg := range []string{"rete", "match", "engine", "lock", "wm"} {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, en := range entries {
			name := en.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check("pdps/internal/"+pkg, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := funcName(fn)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						found[fmt.Sprintf("%s.%s: range %s", pkg, name, types.ExprString(rs.X))] = fset.Position(rs.For)
					}
					return true
				})
			}
		}
	}
	var unlisted, stale []string
	for k := range found {
		if mapRangeAllowList[k] == "" {
			unlisted = append(unlisted, k)
		}
	}
	for k := range mapRangeAllowList {
		if _, ok := found[k]; !ok {
			stale = append(stale, k)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	for _, k := range unlisted {
		t.Errorf("%s: range over a map not on the allow-list: %s", found[k], k)
	}
	for _, k := range stale {
		t.Errorf("allow-list entry matches no range over a map: %s", k)
	}
}

// funcName renders a declaration as Func or Recv.Method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	return types.ExprString(typ) + "." + fn.Name.Name
}
