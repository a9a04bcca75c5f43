package omicon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// protocolPackages are the packages whose code runs inside a simulated
// process. The engine steps each process as a coroutine, and Exchange must
// be called on that coroutine's own goroutine (internal/sim's Protocol
// contract), so this code may neither start goroutines nor block on
// channels.
var protocolPackages = []string{
	"core", "paramomissions", "phaseking", "dolevstrong",
	"earlystop", "multivalue", "benor", "floodset",
}

// TestProtocolsStayOnTheirGoroutine checks that contract statically: the
// non-test files of every protocol package contain no go statement, no
// select, no channel send or receive and no chan type.
func TestProtocolsStayOnTheirGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range protocolPackages {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			ast.Inspect(f, func(n ast.Node) bool {
				what := ""
				switch n := n.(type) {
				case *ast.GoStmt:
					what = "go statement"
				case *ast.SelectStmt:
					what = "select"
				case *ast.SendStmt:
					what = "channel send"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						what = "channel receive"
					}
				case *ast.ChanType:
					what = "chan type"
				}
				if what != "" {
					t.Errorf("%s: %s in protocol code", fset.Position(n.Pos()), what)
				}
				return true
			})
		}
		if parsed == 0 {
			t.Errorf("%s: no non-test Go files", dir)
		}
	}
}
