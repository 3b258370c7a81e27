package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lifecycleType identifies a tracked lifecycle type by its package and type
// name.
type lifecycleType struct{ pkg, name string }

// lifecycleSpec describes how a lifecycle type is discharged and how its
// diagnostics read.
type lifecycleSpec struct {
	closers map[string]bool // methods that discharge the obligation
	done    string          // past participle for diagnostics
	names   string          // closer method list for diagnostics
}

// lifecycleSpecs maps the tracked lifecycle types to the methods that
// discharge them: engine query scopes, the cube's
// arena-borrowed tables, and prepared sessions (whose rebuild paths —
// create, restore, import — must Close on every non-handoff path or leak
// a whole prepared substrate).
var lifecycleSpecs = map[lifecycleType]lifecycleSpec{
	{"engine", "QueryScope"}: {closers: map[string]bool{"Finish": true, "Close": true}, done: "Finished", names: "Finish/Close"},
	{"cube", "PackedTable"}:  {closers: map[string]bool{"Release": true}, done: "Released", names: "Release"},
	{"sirum", "Prepared"}:    {closers: map[string]bool{"Close": true}, done: "Closed", names: "Close"},
}

func pairedLifecycleCheck() *Check {
	return &Check{
		Name: "pairedlifecycle",
		Doc:  "engine.QueryScope, cube.PackedTable and sirum.Prepared acquisitions must be released in the same function or handed off",
		Run:  runPairedLifecycle,
	}
}

// lifecycleTypeOf returns the tracked lifecycle type t points to, if any.
func lifecycleTypeOf(t types.Type) (lifecycleType, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return lifecycleType{}, false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return lifecycleType{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return lifecycleType{}, false
	}
	lt := lifecycleType{pkg: obj.Pkg().Name(), name: obj.Name()}
	if _, ok := lifecycleSpecs[lt]; !ok {
		return lifecycleType{}, false
	}
	return lt, true
}

func runPairedLifecycle(p *Package, report func(pos token.Pos, format string, args ...any)) {
	// The engine package itself constructs and plumbs these values; the
	// invariant binds their consumers.
	if pathIn(p, "internal/engine") {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLifecycleBody(p, fd, report)
		}
	}
}

// yield is one lifecycle acquisition inside a function body.
type yield struct {
	obj    types.Object // the bound variable; nil when bound to blank
	errObj types.Object // the error bound by the same assignment, if any
	fn     ast.Node     // innermost enclosing FuncLit, nil at function level
	lt     lifecycleType
	pos    token.Pos
}

var errorType = types.Universe.Lookup("error").Type()

func checkLifecycleBody(p *Package, fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...any)) {
	var yields []yield
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tv, ok := p.Info.Types[call]
		if !ok {
			return
		}
		// Align each lifecycle-typed result with its LHS binding.
		var results []types.Type
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			for i := 0; i < tuple.Len(); i++ {
				results = append(results, tuple.At(i).Type())
			}
		} else {
			results = []types.Type{tv.Type}
		}
		if len(results) != len(as.Lhs) {
			return
		}
		// The error bound alongside the acquisition, when there is one:
		// returns guarded by it are failure paths where the lifecycle value
		// was never acquired, not leaks.
		var errObj types.Object
		for i, rt := range results {
			if !types.Identical(rt, errorType) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := p.Info.Defs[id]; obj != nil {
					errObj = obj
				} else if obj := p.Info.Uses[id]; obj != nil {
					errObj = obj
				}
			}
		}
		for i, rt := range results {
			lt, ok := lifecycleTypeOf(rt)
			if !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			y := yield{lt: lt, pos: as.Lhs[i].Pos(), errObj: errObj, fn: innermostFuncLit(stack)}
			if id.Name != "_" {
				if obj := p.Info.Defs[id]; obj != nil {
					y.obj = obj
				} else if obj := p.Info.Uses[id]; obj != nil {
					y.obj = obj // plain = assignment to an existing variable
				}
			}
			yields = append(yields, y)
		}
	})

	for _, y := range yields {
		if y.obj == nil {
			report(y.pos, "*%s.%s result is discarded; it must be %s", y.lt.pkg, y.lt.name, closerHint(y.lt))
			continue
		}
		checkYieldUsage(p, fd, y, report)
	}
}

func closerHint(lt lifecycleType) string {
	return lifecycleSpecs[lt].done + " (defer or all return paths) or handed off"
}

func checkYieldUsage(p *Package, fd *ast.FuncDecl, y yield, report func(pos token.Pos, format string, args ...any)) {
	closers := lifecycleSpecs[y.lt].closers
	var (
		deferred      bool
		closerPos     []token.Pos // closer calls discharge paths after them
		escapePos     []token.Pos // handoffs (store / pass / send) do too
		returnPos     []token.Pos // returns that must see a discharge first
		closerSeen    bool
		handoffReturn bool // a "return p" path hands the obligation off
	)
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			// Only returns that exit the function (or closure) owning the
			// obligation count: a return in a different function literal
			// leaves that closure, not this scope. A return on the
			// acquisition's own error path has nothing to release, and a
			// return whose results carry the value hands the obligation to
			// the caller.
			if innermostFuncLit(stack) != y.fn || errGuardedReturn(p, stack, y.errObj) {
				return
			}
			// A return outside the variable's declaring scope cannot leak it:
			// on that path the value was either never bound (failed if-init
			// acquire) or already discharged inside the scope.
			if sc := y.obj.Parent(); sc != nil && !sc.Contains(ret.Pos()) {
				return
			}
			if returnHandsOff(p, ret, y.obj, closers) {
				handoffReturn = true
				return
			}
			returnPos = append(returnPos, ret.Pos())
			return
		}
		id, ok := n.(*ast.Ident)
		if !ok || p.Info.Uses[id] != y.obj {
			return
		}
		parent := parentOf(stack)
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id && closers[sel.Sel.Name] {
			// x.Release / x.Finish: a call discharges here; a method value
			// (e.g. "return cd, ref.Release, nil") hands the obligation off.
			gp := grandParentOf(stack)
			if call, ok := gp.(*ast.CallExpr); ok && call.Fun == sel {
				closerSeen = true
				closerPos = append(closerPos, call.Pos())
				if underDefer(stack) {
					deferred = true
				}
				return
			}
			escapePos = append(escapePos, id.Pos())
			return
		}
		// Any other use that moves the value out of the function transfers
		// the release obligation: storing it, passing it on, sending it.
		// (Returning it is handled at the ReturnStmt above.)
		switch pr := parent.(type) {
		case *ast.CallExpr:
			if pr.Fun != id { // argument, not the callee
				escapePos = append(escapePos, id.Pos())
			}
		case *ast.CompositeLit, *ast.KeyValueExpr:
			escapePos = append(escapePos, id.Pos())
		case *ast.AssignStmt:
			for _, rhs := range pr.Rhs {
				if rhs == id && !allBlank(pr.Lhs) {
					escapePos = append(escapePos, id.Pos())
				}
			}
		case *ast.SendStmt:
			if pr.Value == id {
				escapePos = append(escapePos, id.Pos())
			}
		}
	})
	if deferred {
		return
	}
	if !closerSeen && len(escapePos) == 0 && !handoffReturn {
		report(y.pos, "*%s.%s acquired here is never %s", y.lt.pkg, y.lt.name, closerHint(y.lt))
		return
	}
	// Every plain return after the yield must be preceded in source order by
	// a closer call or a handoff, or that path leaks.
	for _, ret := range returnPos {
		if ret <= y.pos {
			continue
		}
		released := false
		for _, c := range closerPos {
			if c < ret {
				released = true
				break
			}
		}
		for _, e := range escapePos {
			if e < ret {
				released = true
				break
			}
		}
		if !released {
			report(y.pos, "*%s.%s acquired here is not released on all paths: return at %s precedes every %s call (defer it, or release before returning)", y.lt.pkg, y.lt.name, p.Fset.Position(ret), lifecycleSpecs[y.lt].names)
		}
	}
}

// errGuardedReturn reports whether a return sits inside an
// "if <errObj> != nil" block — the failure path of the acquisition itself,
// where the lifecycle value was never handed out and there is nothing to
// release. Only the error bound by the acquisition's own assignment
// qualifies; a different (e.g. shadowed) error still flags the path.
func errGuardedReturn(p *Package, stack []ast.Node, errObj types.Object) bool {
	if errObj == nil {
		return false
	}
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		be, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || be.Op != token.NEQ {
			continue
		}
		x, ok := be.X.(*ast.Ident)
		if !ok || p.Info.Uses[x] != errObj {
			continue
		}
		if y, ok := be.Y.(*ast.Ident); ok && y.Name == "nil" {
			return true
		}
	}
	return false
}

func grandParentOf(stack []ast.Node) ast.Node {
	seen := 0
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		seen++
		if seen == 2 {
			return stack[i]
		}
	}
	return nil
}

// innermostFuncLit returns the innermost function literal enclosing the node
// at the top of the stack, or nil when the node sits directly in the
// declared function's body.
func innermostFuncLit(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			return fl
		}
	}
	return nil
}

// returnHandsOff reports whether the return's results discharge the
// lifecycle value: carrying it out to the caller, handing off a closer
// method value ("return cd, ref.Release, nil"), or calling the closer in
// the result position. A plain method call or field read through the value
// ("return t.Len()") does not move it and does not qualify.
func returnHandsOff(p *Package, ret *ast.ReturnStmt, obj types.Object, closers map[string]bool) bool {
	handsOff := false
	for _, res := range ret.Results {
		inspectWithStack(res, func(n ast.Node, stack []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || p.Info.Uses[id] != obj {
				return
			}
			if sel, ok := parentOf(stack).(*ast.SelectorExpr); ok && sel.X == id {
				if call, ok := grandParentOf(stack).(*ast.CallExpr); ok && call.Fun == sel {
					// A called closer discharges; any other call just reads
					// through the receiver.
					handsOff = handsOff || closers[sel.Sel.Name]
					return
				}
				// A method value captures the receiver, handing it off.
				handsOff = true
				return
			}
			handsOff = true
		})
	}
	return handsOff
}

// underDefer reports whether the node at the top of the stack sits inside a
// defer statement (directly or through a deferred closure).
func underDefer(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
