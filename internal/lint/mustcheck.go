package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MustCheck forbids silently discarding results whose loss corrupts a
// run or its durability:
//
//   - sim.Engine.After returns (event, error) — a dropped error means a
//     mis-parameterized timer silently never fires;
//   - any Flush method with results — sinks and trace writers buffer,
//     so an unchecked Flush can lose the tail of a table or a trace;
//   - campaign Store.Put / PutBatch / Compact / Close — the
//     content-addressed store's durability contract (a dropped Close is
//     a dropped seal).
//
// Discarding means an expression statement, a defer, or a go statement.
// An explicit blank assignment (`_ = w.Flush()`) documents intent and is
// accepted.
var MustCheck = &Analyzer{
	Name: "mustcheck",
	Doc:  "forbid discarding results of Engine.After, Flush, and campaign Store.Put/PutBatch/Compact/Close",
	Run:  runMustCheck,
}

func runMustCheck(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			kind := ""
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call, kind = n.Call, "deferred "
			case *ast.GoStmt:
				call, kind = n.Call, "spawned "
			}
			if call == nil {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil {
				return true
			}
			if why := mustCheckTarget(fn); why != "" {
				out = append(out, Finding{
					Pos:     call.Pos(),
					Message: fmt.Sprintf("%sresult of %s discarded; %s (check it, or assign to _ explicitly)", kind, recvTypeName(fn)+"."+fn.Name(), why),
				})
			}
			return true
		})
	}
	return out
}

// mustCheckTarget reports why fn's results must not be discarded (""
// when fn is not a tracked call).
func mustCheckTarget(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return ""
	}
	switch {
	case isMethod(fn, simPath, "Engine", "After"):
		return "an invalid delay silently drops the timer"
	case fn.Name() == "Flush" && recvTypeName(fn) != "":
		return "a failed flush loses buffered output"
	case isMethod(fn, campaignPath, "Store", "Put"),
		isMethod(fn, campaignPath, "Store", "PutBatch"),
		isMethod(fn, campaignPath, "Store", "Compact"),
		isMethod(fn, campaignPath, "Store", "Close"):
		return "a failed store write breaks campaign resume"
	}
	return ""
}
