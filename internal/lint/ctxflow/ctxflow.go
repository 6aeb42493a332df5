// Package ctxflow checks that context.Context is threaded through the
// serving request paths instead of being synthesized mid-path with
// context.Background() or context.TODO(). SCR's Process observes
// cancellation before optimizer calls and while waiting on shared flights;
// a Background() conjured inside internal/core, internal/server or the
// harness severs that chain, so request timeouts silently stop applying to
// everything below the break.
//
// Scope: request-path packages only. Package main and
// _test.go files are exempt — creating the root context is their job.
package ctxflow

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbid context.Background()/TODO() inside request-path packages; " +
		"thread the caller's context instead",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// scope holds the package path segments of the request-path packages.
var scope = []string{"core", "server", "harness", "cluster"}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	if !lintutil.PkgInScope(pass.Pkg.Path(), scope) {
		return nil, nil
	}
	lintutil.ReportAllowMisuse(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if lintutil.InTestFile(pass, call.Pos()) {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			lintutil.Report(pass, call.Pos(),
				"context.%s() on a request path severs cancellation; accept a ctx parameter and thread the caller's context", fn.Name())
		}
	})
	return nil, nil
}
