// Package lockcheck implements the bflint analyzer enforcing the
// //bflint:guardedby annotation: a struct field annotated
//
//	type cache struct {
//		mu      sync.Mutex
//		entries map[string]*entry //bflint:guardedby mu
//	}
//
// may only be read or written while the named sibling mutex is held on
// EVERY control-flow path to the access — checked with the
// internal/lint/callgraph lockset analysis, and interprocedurally:
// an unexported helper may rely on its callers holding the lock
// (the *Locked-suffix idiom), in which case every recorded call site is
// checked instead, through up to maxObligationDepth levels of helpers.
//
// Soundness limits (documented in DESIGN.md §12): the lock must be a
// sibling field reachable by the same base path as the guarded field
// (c.entries ↔ c.mu); accesses through non-path expressions
// (m[k].field, f().field) and locals aliased from shared objects are
// not checked; RLock counts as Lock (the analyzer does not distinguish
// read from write accesses); fresh objects built locally from a
// composite literal or new() are exempt until they escape.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bfvlsi/internal/lint/analysis"
	"bfvlsi/internal/lint/callgraph"
)

// Analyzer enforces //bflint:guardedby field annotations.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "fields annotated //bflint:guardedby mu must only be accessed with the named " +
		"sibling mutex held on every CFG path, interprocedurally through unexported helpers",
	Run: run,
}

// maxObligationDepth bounds how many caller levels an unexported
// helper's lock obligation may climb before the access is reported.
const maxObligationDepth = 4

// recvParam is the obligation parameter index standing for the method
// receiver.
const recvParam = -1

// obligation says: node's body accesses a guarded field whose lock is
// reached through node's parameter Param at RelPath; some caller must
// hold it at every call site.
type obligation struct {
	node      *callgraph.Node
	param     int
	relPath   string    // lock path below the parameter, e.g. ".mu"
	field     string    // guarded field name, for the message
	lock      string    // lock rendering at the access, for the message
	accessPos token.Pos // the original guarded access
	depth     int
}

type checker struct {
	pass    *analysis.Pass
	graph   *callgraph.Graph
	guarded map[*types.Var]string // field object -> sibling lock field name
	queue   []obligation
	// reported de-duplicates diagnostics per position.
	reported map[token.Pos]bool
	// litLocks caches per-literal lockset analyses.
	litLocks map[*ast.FuncLit]*callgraph.LockInfo
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:     pass,
		guarded:  collectGuarded(pass),
		reported: map[token.Pos]bool{},
		litLocks: map[*ast.FuncLit]*callgraph.LockInfo{},
	}
	if len(c.guarded) == 0 {
		return nil, nil
	}
	c.graph = callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files)
	for _, node := range c.graph.Nodes {
		if pass.InTestFile(node.Decl.Pos()) {
			continue
		}
		c.checkFunc(node)
	}
	c.drainObligations()
	return nil, nil
}

// collectGuarded maps annotated struct fields to their lock field name.
// The annotation must name a sibling field of the same struct.
func collectGuarded(pass *analysis.Pass) map[*types.Var]string {
	guarded := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			siblings := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					siblings[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				lock := guardAnnotation(field)
				if lock == "" {
					continue
				}
				if !siblings[lock] {
					pass.Reportf(field.Pos(),
						"//bflint:guardedby names %s, which is not a sibling field of this struct", lock)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[v] = lock
					}
				}
			}
			return true
		})
	}
	return guarded
}

// guardAnnotation extracts the lock name from a field's
// //bflint:guardedby comment (doc or trailing), or "".
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "bflint:guardedby"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					return fields[0]
				}
			}
		}
	}
	return ""
}

// checkFunc checks every guarded-field access in one declared function,
// analyzing nested function literals against their own (empty-at-entry)
// locksets: a goroutine or deferred closure does not inherit the locks
// the enclosing function held when it was created.
func (c *checker) checkFunc(node *callgraph.Node) {
	fresh := freshLocals(c.pass.TypesInfo, node.Decl.Body)
	c.walk(node, node.Decl.Body, c.graph.Locksets(node), true, fresh)
}

func (c *checker) walk(node *callgraph.Node, body ast.Node, li *callgraph.LockInfo, topLevel bool, fresh map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if body == n {
				return true
			}
			lil, ok := c.litLocks[n]
			if !ok {
				lil = callgraph.Locksets(c.pass.TypesInfo, n.Body)
				c.litLocks[n] = lil
			}
			c.walk(node, n.Body, lil, false, fresh)
			return false
		case *ast.SelectorExpr:
			c.checkAccess(node, n, li, topLevel, fresh)
		}
		return true
	})
}

// checkAccess validates one selector against the guardedby contract.
func (c *checker) checkAccess(node *callgraph.Node, sel *ast.SelectorExpr, li *callgraph.LockInfo, topLevel bool, fresh map[types.Object]bool) {
	obj, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	lockName, ok := c.guarded[obj]
	if !ok {
		return
	}
	base, ok := callgraph.PathOf(c.pass.TypesInfo, sel.X)
	if !ok {
		return // non-path base (m[k].field): outside the contract
	}
	if fresh[base.Root] && base.Path == "" {
		return // object under construction, not yet shared
	}
	lockKey := callgraph.Key{Root: base.Root, Path: base.Path + "." + lockName}
	if li.Holds(sel.Sel.Pos(), lockKey) {
		return
	}
	field := base.Root.Name() + base.Path + "." + sel.Sel.Name
	lock := lockKey.String()

	// Not held here. An unexported function whose lock lives under its
	// own receiver or a parameter may shift the obligation to its
	// callers (the evictLocked idiom).
	if topLevel && !ast.IsExported(node.Func.Name()) {
		if idx, ok := c.paramIndexOf(node, base.Root); ok {
			c.queue = append(c.queue, obligation{
				node: node, param: idx, relPath: base.Path + "." + lockName,
				field: field, lock: lock, accessPos: sel.Sel.Pos(),
			})
			return
		}
	}
	c.report(sel.Sel.Pos(), field, lock, "")
}

// paramIndexOf maps an object to the node's receiver/parameter index.
func (c *checker) paramIndexOf(node *callgraph.Node, obj types.Object) (int, bool) {
	sig, ok := node.Func.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	if r := sig.Recv(); r != nil && r == obj {
		return recvParam, true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i, true
		}
	}
	return 0, false
}

// drainObligations checks each queued helper obligation at every
// recorded call site, climbing further up the graph when the caller
// itself forwards its own parameter, up to maxObligationDepth.
func (c *checker) drainObligations() {
	for len(c.queue) > 0 {
		ob := c.queue[0]
		c.queue = c.queue[1:]

		sites := c.graph.CallersOf(ob.node.Func)
		if len(sites) == 0 {
			// Nobody visibly calls the helper, so no caller can discharge
			// the obligation: report at the access itself.
			c.report(ob.accessPos, ob.field, ob.lock,
				" (helper has no recorded callers to hold it)")
			continue
		}
		for _, site := range sites {
			if c.pass.InTestFile(site.Call.Pos()) {
				continue
			}
			caller := site.Caller
			arg, ok := argExpr(site.Call, ob.param)
			if ok {
				if u, isAddr := callgraph.Unparen(arg).(*ast.UnaryExpr); isAddr && u.Op == token.AND {
					arg = u.X
				}
			}
			var base callgraph.Key
			if ok {
				base, ok = callgraph.PathOf(c.pass.TypesInfo, arg)
			}
			if !ok {
				c.report(site.Call.Pos(), ob.field, ob.lock,
					" (call site passes a value the analyzer cannot name)")
				continue
			}
			lockKey := callgraph.Key{Root: base.Root, Path: base.Path + ob.relPath}
			li := c.lockInfoAt(caller, site.Call.Pos())
			if li.Holds(site.Call.Pos(), lockKey) {
				continue
			}
			// The caller may forward the obligation to its own callers
			// only when it is itself an unexported helper that somebody
			// calls; a root function (exported, or called by nobody) must
			// hold the lock here.
			if ob.depth+1 < maxObligationDepth && !ast.IsExported(caller.Func.Name()) &&
				len(c.graph.CallersOf(caller.Func)) > 0 && c.enclosesTopLevel(caller, site.Call.Pos()) {
				if idx, pok := c.paramIndexOf(caller, base.Root); pok {
					c.queue = append(c.queue, obligation{
						node: caller, param: idx, relPath: base.Path + ob.relPath,
						field: ob.field, lock: ob.lock,
						accessPos: ob.accessPos, depth: ob.depth + 1,
					})
					continue
				}
			}
			c.report(site.Call.Pos(), ob.field, lockKey.String(),
				" (callee "+ob.node.Func.Name()+" accesses it)")
		}
	}
}

// lockInfoAt returns the lockset analysis of the innermost function
// body (declared function or nested literal) containing pos.
func (c *checker) lockInfoAt(node *callgraph.Node, pos token.Pos) *callgraph.LockInfo {
	var innermost *ast.FuncLit
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if lit.Body.Pos() <= pos && pos <= lit.Body.End() {
				innermost = lit
				return true
			}
			return false
		}
		return true
	})
	if innermost == nil {
		return c.graph.Locksets(node)
	}
	li, ok := c.litLocks[innermost]
	if !ok {
		li = callgraph.Locksets(c.pass.TypesInfo, innermost.Body)
		c.litLocks[innermost] = li
	}
	return li
}

// enclosesTopLevel reports whether pos sits directly in the node's body
// rather than inside a nested literal (whose lockset is its own, so the
// caller-holds-it escape hatch does not apply).
func (c *checker) enclosesTopLevel(node *callgraph.Node, pos token.Pos) bool {
	top := true
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if lit.Body.Pos() <= pos && pos <= lit.Body.End() {
				top = false
			}
			return false
		}
		return true
	})
	return top
}

func (c *checker) report(pos token.Pos, field, lock, suffix string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos,
		"%s is guarded by %s (//bflint:guardedby) but %s is not held on every path to this access%s",
		field, lock, lock, suffix)
}

// freshLocals finds local variables bound to a brand-new object — a
// composite literal, &composite, or new(T) — and never reassigned from
// anything else: accesses through them are construction, not sharing.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				continue
			}
			if isFreshExpr(as.Rhs[i]) && as.Tok == token.DEFINE {
				fresh[obj] = true
			} else if as.Tok == token.ASSIGN {
				delete(fresh, obj)
			}
		}
		return true
	})
	return fresh
}

func isFreshExpr(e ast.Expr) bool {
	switch e := callgraph.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := callgraph.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := callgraph.Unparen(e.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// argExpr returns the caller expression feeding the callee's parameter
// idx at this call: the receiver expression for recvParam, otherwise
// the positional argument. Variadic tails beyond the declared
// parameters are not mapped.
func argExpr(call *ast.CallExpr, idx int) (ast.Expr, bool) {
	if idx == recvParam {
		if sel, ok := callgraph.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X, true
		}
		return nil, false
	}
	if idx < 0 || idx >= len(call.Args) {
		return nil, false
	}
	return call.Args[idx], true
}
