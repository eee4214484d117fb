package repair

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestRepairNeverDecodes pins the package's defining property in the
// source itself: the repair path is decode-free. It must not import the
// decode-then-re-encode machinery (internal/predist, the simulator whose
// decoding repair this package replaced, or the Gaussian-elimination
// layer in internal/gfmat), and it must never construct a core.Decoder. A human
// adding a "just decode it here" shortcut trips this test, not a code
// reviewer three months later.
func TestRepairNeverDecodes(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	forbiddenImports := []string{"internal/predist", "internal/gfmat"}
	forbiddenSelectors := map[string]string{
		"NewDecoder": "constructs a decoder",
		"Decoder":    "references the decoder type",
	}
	checked := 0
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue // tests decode on purpose, to judge the daemon's work
			}
			checked++
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				for _, bad := range forbiddenImports {
					if strings.Contains(path, bad) {
						t.Errorf("%s imports %s — the repair path must stay decode-free", name, path)
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if why, bad := forbiddenSelectors[sel.Sel.Name]; bad {
					t.Errorf("%s: %s at %s — the repair path must stay decode-free",
						name, why, fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
	if checked < 2 {
		t.Fatalf("scanned only %d non-test files; the package layout moved?", checked)
	}
}
