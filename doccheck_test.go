package pdps_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestExportedAPIDocumented parses pdps.go and fails for any exported
// top-level identifier that lacks a doc comment. The public facade is
// the paper's vocabulary — every exported name is expected to say what
// it is and, where apt, which part of the paper it reproduces — so doc
// coverage is enforced, not aspirational. A grouped declaration (const
// or var block, or a factored type block) may document its members
// either individually or with one comment on the group.
func TestExportedAPIDocumented(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "pdps.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if f.Doc == nil {
		t.Error("pdps.go: missing package doc comment")
	}

	var missing []string
	report := func(pos token.Pos, name string) {
		missing = append(missing, fmt.Sprintf("%s: %s", fset.Position(pos), name))
	}

	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(s.Pos(), d.Tok.String()+" "+n.Name)
						}
					}
				}
			}
		}
	}
	for _, m := range missing {
		t.Errorf("undocumented exported identifier: %s", m)
	}
}

// facadeCallers are the directories whose Go files (tests included)
// define which facade exports earn their place: the examples, the four
// commands built on the facade, and this package's own tests.
var facadeCallers = []string{"examples", "cmd/psanalyze", "cmd/psgen", "cmd/psrun", "cmd/psshell"}

// facadeExports parses pdps.go and returns its exported top-level
// declarations by name (methods excluded).
func facadeExports(t *testing.T) map[string]ast.Node {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "pdps.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]ast.Node{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				out[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out[s.Name.Name] = s.Type
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out[n.Name] = s
						}
					}
				}
			}
		}
	}
	return out
}

// facadeRefs returns every name X written as pdps.X in a Go file
// under the caller directories or in a root test file.
func facadeRefs(t *testing.T) map[string]bool {
	t.Helper()
	var files []string
	for _, dir := range facadeCallers {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, tests...)

	refs := map[string]bool{}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"pdps"` {
				local = "pdps"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					refs[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return refs
}

// TestExportedAPIReferenced fails on any export of pdps.go that no
// caller uses: an export stays only if an example, a facade command
// or a root test names it as pdps.X, or if a kept export names it in
// its own declaration (Engine's methods return Result, Store and
// Metrics). The facade carries what its callers need and nothing
// more; an unused alias is deleted, not kept for completeness.
func TestExportedAPIReferenced(t *testing.T) {
	exports := facadeExports(t)
	kept := facadeRefs(t)
	// Close the kept set over the facade names each kept declaration
	// mentions; a qualified identifier (engine.Result) is not one.
	var queue []string
	for name := range kept {
		queue = append(queue, name)
	}
	for len(queue) > 0 {
		name := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if exports[name] == nil {
			continue
		}
		ast.Inspect(exports[name], func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false
			case *ast.Ident:
				if exports[n.Name] != nil && !kept[n.Name] {
					kept[n.Name] = true
					queue = append(queue, n.Name)
				}
			}
			return true
		})
	}
	var unused []string
	for name := range exports {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("pdps.%s is exported but no example, facade command or root test uses it", name)
	}
}

// TestDocsNameFacadeExports fails when the README, a document under
// docs/ or an example names pdps.X for an X that pdps.go does not
// export, so the prose cannot point at deleted API. CHANGES.md and
// DESIGN.md are history and are not checked.
func TestDocsNameFacadeExports(t *testing.T) {
	exports := facadeExports(t)
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md")
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`\bpdps\.([A-Z][A-Za-z0-9_]*)`)
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range ref.FindAllStringSubmatch(line, -1) {
				if exports[m[1]] == nil {
					t.Errorf("%s:%d: pdps.%s is not an export of pdps.go", path, i+1, m[1])
				}
			}
		}
	}
}
