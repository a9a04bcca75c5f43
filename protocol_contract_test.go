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
	"earlystop", "multivalue", "benor", "floodset", "committee",
}

// inspectProtocols parses the non-test files of every protocol package and
// reports, with file and line, each node for which check names a breach.
func inspectProtocols(t *testing.T, check func(ast.Node) string) {
	t.Helper()
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
				if what := check(n); what != "" {
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

// TestProtocolsStayOnTheirGoroutine checks that contract statically: the
// non-test files of every protocol package contain no go statement, no
// select, no channel send or receive and no chan type.
func TestProtocolsStayOnTheirGoroutine(t *testing.T) {
	inspectProtocols(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.GoStmt:
			return "go statement"
		case *ast.SelectStmt:
			return "select"
		case *ast.SendStmt:
			return "channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				return "channel receive"
			}
		case *ast.ChanType:
			return "chan type"
		}
		return ""
	})
}

// TestProtocolsSendOnePath checks statically that protocols send only
// through Env.Send: the engine then writes each message once, straight into
// the round outbox. Their non-test files build no sim.Message — no sim.Msg
// call, no sim.Message literal — and pass Exchange nothing but nil.
func TestProtocolsSendOnePath(t *testing.T) {
	isSim := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == "sim"
	}
	inspectProtocols(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isSim(n.Fun, "Msg") {
				return "sim.Msg call"
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Exchange" {
				if len(n.Args) != 1 {
					return "Exchange call without exactly one argument"
				}
				if id, ok := n.Args[0].(*ast.Ident); !ok || id.Name != "nil" {
					return "Exchange call with a non-nil outbox"
				}
			}
		case *ast.CompositeLit:
			if isSim(n.Type, "Message") {
				return "sim.Message literal"
			}
		}
		return ""
	})
}
