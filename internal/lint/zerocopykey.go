package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotKeyPackages are the packages whose inner loops key maps by scratch
// buffers; a stray string([]byte) binding there re-introduces a per-rule
// allocation (see the PR 7 packed-key pipeline).
var hotKeyPackages = []string{
	"internal/rule",
	"internal/cube",
	"internal/candgen",
	"internal/miner",
	"internal/maxent",
}

func zeroCopyKeyCheck() *Check {
	return &Check{
		Name: "zerocopykey",
		Doc:  "string([]byte) in hot packages must be a direct map index or comparison operand",
		Run:  runZeroCopyKey,
	}
}

func runZeroCopyKey(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !pathIn(p, hotKeyPackages...) {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return
			}
			if !isStringOfBytes(p.Info, call) {
				return
			}
			switch parent := parentOf(stack).(type) {
			case *ast.IndexExpr:
				// m[string(buf)] — allocation-free for map reads and writes.
				if parent.Index == call && isMap(p.Info.TypeOf(parent.X)) {
					return
				}
			case *ast.BinaryExpr:
				switch parent.Op {
				case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
					return // comparison operand — no retention
				}
			case *ast.SwitchStmt:
				if parent.Tag == call {
					return // switch string(buf) — compiled to comparisons
				}
			case *ast.CaseClause:
				return // case string(buf): — comparison
			}
			report(call.Pos(), "string([]byte) conversion must be used directly as a map index or comparison operand; binding, passing or returning it allocates and retains a key copy per call")
		})
	}
}

// isStringOfBytes reports whether call is a conversion to a string type
// applied to a value whose underlying type is []byte.
func isStringOfBytes(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	if _, ok := tv.Type.Underlying().(*types.Basic); !ok {
		return false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return false
	}
	argType := info.TypeOf(call.Args[0])
	if argType == nil {
		return false
	}
	slice, ok := argType.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && elem.Kind() == types.Byte
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
