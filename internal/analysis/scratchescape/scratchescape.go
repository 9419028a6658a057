// Package scratchescape flags exported functions that return aliases of
// pooled or reusable scratch memory.
//
// The hot paths recycle aggressively: sim.Engine keeps per-run scratch
// buffers, RunSourceInto overwrites caller-owned Results, fleet accumulators
// recycle merged-out partials through a free list (Transient). A scratch
// buffer that leaks through an exported return value becomes aliased state
// the next Reset/Run silently clobbers — a classic heisenbug. Scratch
// declarations are marked
//
//	merged trace.Trace //rrclint:scratch
//
// and this analyzer reports any exported function or method in non-test
// code whose return statement yields a marked object directly, its address,
// or a reslice of it. Returning a copy is always fine; a provably safe
// alias return carries //rrclint:escapeok <reason>.
package scratchescape

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/internal/directive"
)

// Analyzer is the scratchescape pass.
var Analyzer = &analysis.Analyzer{
	Name: "scratchescape",
	Doc: "exported functions must not return aliases of //rrclint:scratch memory\n\n" +
		"Reusable scratch handed out through an exported API will be clobbered by the\n" +
		"next run; return a copy or annotate //rrclint:escapeok <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := directive.Parse(pass)
	marked := markedObjects(pass, dirs)
	if len(marked) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		if dirs.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkReturns(pass, dirs, marked, fd)
		}
	}
	return nil, nil
}

// checkReturns inspects the return statements that belong to fd itself
// (not to nested function literals, which are not part of the exported
// surface).
func checkReturns(pass *analysis.Pass, dirs *directive.Map, marked map[types.Object]bool, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				obj := aliasRoot(pass, res)
				if obj == nil || !marked[obj] {
					continue
				}
				if ok, bare := dirs.Suppressed(n.Pos(), "escapeok"); ok {
					continue
				} else if bare != nil {
					pass.Reportf(bare.Pos, "//rrclint:escapeok needs a reason")
					continue
				}
				pass.Reportf(n.Pos(), "exported %s returns an alias of reusable scratch %s; the next run will clobber it — return a copy or annotate //rrclint:escapeok <reason>",
					fd.Name.Name, obj.Name())
			}
		}
		return true
	})
}

// aliasRoot walks an expression down to the object it aliases: the object
// itself, its address, or a reslice of it. Index expressions are treated as
// element copies and not reported.
func aliasRoot(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if x.Op.String() != "&" {
				return nil
			}
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			return pass.TypesInfo.Uses[x.Sel]
		default:
			return nil
		}
	}
}

func markedObjects(pass *analysis.Pass, dirs *directive.Map) map[types.Object]bool {
	marked := make(map[types.Object]bool)
	note := func(id *ast.Ident) {
		if id == nil {
			return
		}
		if _, ok := dirs.Marker(id.Pos(), "scratch"); !ok {
			return
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			marked[obj] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, name := range n.Names {
					note(name)
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					note(name)
				}
			}
			return true
		})
	}
	return marked
}
