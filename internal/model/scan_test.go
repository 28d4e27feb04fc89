package model

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// timeAllowlist names the literal times outside this package that are
// experiment parameters, not modelled times. An entry matches a file path
// prefix (relative to the module root) and, if decl is set, only inside the
// top-level function, method, constant or variable of that name.
var timeAllowlist = []struct{ path, decl, reason string }{
	{"internal/harness/", "", "exhibit windows, warm-ups, drain deadlines and the exhibits' fault schedules"},
	{"internal/fault/", "RandomPlan", "the times of a generated fault plan"},
	{"internal/fault/", "Parse", "the default of a plan term the user left out"},
	{"internal/telemetry/", "DefaultInterval", "the sampling cadence of an observer"},
	{"internal/chassis/", "Drain", "the poll step of a drain loop, bounded by its caller's deadline"},
	{"cmd/", "", "command-line defaults (xenic-sim's drain deadline)"},
}

// timeUnits are the unit selectors of a literal time: package sim's, and the
// public API's re-exports of them.
var timeUnits = map[string]bool{"Nanosecond": true, "Microsecond": true, "Millisecond": true, "Second": true}

func isTimeUnit(e ast.Expr) bool {
	s, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !timeUnits[s.Sel.Name] {
		return false
	}
	pkg, ok := s.X.(*ast.Ident)
	return ok && (pkg.Name == "sim" || pkg.Name == "xenic")
}

func hasNumber(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BasicLit); ok && (b.Kind == token.INT || b.Kind == token.FLOAT) {
			found = true
		}
		return !found
	})
	return found
}

// declNames lists the names a top-level declaration binds.
func declNames(d ast.Decl) []string {
	if f, ok := d.(*ast.FuncDecl); ok {
		return []string{f.Name.Name}
	}
	var names []string
	for _, s := range d.(*ast.GenDecl).Specs {
		if v, ok := s.(*ast.ValueSpec); ok {
			for _, n := range v.Names {
				names = append(names, n.Name)
			}
		}
	}
	return names
}

// TestNoModelledTimeOutsideModel parses the module's non-test Go and fails on
// a product of a time unit and a numeric literal outside this package, unless
// the allowlist names it; and on an allowlist entry that matches nothing.
// Nested modules (bench/) and examples/, user programs of the public API,
// are not scanned.
func TestNoModelledTimeOutsideModel(t *testing.T) {
	root := filepath.Join("..", "..")
	used := make([]bool, len(timeAllowlist))
	allowed := func(rel string, names []string) bool {
		for i, a := range timeAllowlist {
			if strings.HasPrefix(rel, a.path) && (a.decl == "" || slices.Contains(names, a.decl)) {
				used[i] = true
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				rel == "internal/model" || rel == "examples" || rel == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			names := declNames(d)
			ast.Inspect(d, func(n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				if !ok || b.Op != token.MUL {
					return true
				}
				if (isTimeUnit(b.X) && hasNumber(b.Y) || isTimeUnit(b.Y) && hasNumber(b.X)) && !allowed(rel, names) {
					t.Errorf("%s:%d: %s is a modelled time outside internal/model: name it there, with its source",
						rel, fset.Position(b.Pos()).Line, types.ExprString(b))
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range timeAllowlist {
		if !used[i] {
			t.Errorf("allowlist entry %q %q (%s) matches nothing: delete it", a.path, a.decl, a.reason)
		}
	}
}
