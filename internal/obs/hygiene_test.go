package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoStrayPrintsInInternal enforces the observability contract:
// library code under internal/ reports through obs (spans, metrics)
// or returned errors — never by printing. Any fmt.Print*/println or
// a "log" import in non-test internal code fails the build here.
// (internal/report and internal/layoutio produce output as their
// purpose, but they return strings rather than printing, so they
// pass unexceptioned.) Library code also reports to the trace on its
// run's context: a call to obs.Default() outside internal/obs, which
// would bypass that trace, fails too.
func TestNoStrayPrintsInInternal(t *testing.T) {
	root := filepath.Join("..", "..")
	internalDir := filepath.Join(root, "internal")
	obsDir := filepath.Join(internalDir, "obs")
	fset := token.NewFileSet()
	err := filepath.WalkDir(internalDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Errorf("%s: parse: %v", path, err)
			return nil
		}
		inObs := strings.HasPrefix(path, obsDir+string(filepath.Separator))
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "log" {
				t.Errorf("%s imports %q — route diagnostics through internal/obs instead", path, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				id, ok := fun.X.(*ast.Ident)
				if ok && id.Name == "fmt" && strings.HasPrefix(fun.Sel.Name, "Print") {
					t.Errorf("%s: fmt.%s call — route output through internal/obs or return it",
						path, fun.Sel.Name)
				}
				if ok && id.Name == "obs" && fun.Sel.Name == "Default" && !inObs {
					t.Errorf("%s: obs.Default() call — report to the run's trace, obs.From(ctx)", path)
				}
			case *ast.Ident:
				if fun.Name == "println" || fun.Name == "print" {
					t.Errorf("%s: builtin %s call", path, fun.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
