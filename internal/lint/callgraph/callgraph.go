// Package callgraph is the interprocedural layer of the bflint suite:
// a class-hierarchy-analysis (CHA) style call graph over one
// type-checked package, and an intraprocedural lockset dataflow built
// on the internal/lint/cfg engine.
//
// lockcheck, statecover, wirecover and the schema engine sit on top of
// it. The engine is deliberately package-scoped and bounded:
//
//   - calls that leave the package are opaque (no cross-package facts
//     travel through the vet protocol);
//   - dynamic calls through interfaces resolve CHA-style to every
//     package-local type implementing the interface, up to a fan-out
//     bound (MaxInterfaceImpls) beyond which the site is left dynamic;
//   - reflection and closures stored in data structures defeat the
//     graph entirely.
//
// DESIGN.md §12 records these soundness limits next to the contracts
// that tolerate them.
package callgraph

import (
	"go/ast"
	"go/types"
	"strconv"
)

// MaxInterfaceImpls bounds CHA fan-out at one interface call site;
// beyond it the site stays dynamic (unresolved).
const MaxInterfaceImpls = 8

// A Key names one lock (or any access path) as seen from inside one
// function: the root object plus the dotted field path below it.
// Two paths denote the same lock exactly when their Keys are equal.
type Key struct {
	Root types.Object
	Path string // ".mu", ".inner.mu", or "" for a bare variable
}

// String renders the key for diagnostics ("c.mu").
func (k Key) String() string {
	if k.Root == nil {
		return "?" + k.Path
	}
	return k.Root.Name() + k.Path
}

// PathOf decomposes a selector chain (or bare identifier) into its root
// object and dotted path. It fails (ok=false) on anything that is not a
// pure variable path: calls, indexing, dereferences of expressions.
func PathOf(info *types.Info, e ast.Expr) (Key, bool) {
	var parts []string
	for {
		switch x := Unparen(e).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil {
				return Key{}, false
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return Key{}, false
			}
			path := ""
			for i := len(parts) - 1; i >= 0; i-- {
				path += "." + parts[i]
			}
			return Key{Root: obj, Path: path}, true
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		default:
			return Key{}, false
		}
	}
}

// Unparen strips parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ---- call graph ----

// A Node is one function or method declared in the package.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl

	calls []*CallSite
	locks *LockInfo
}

// A CallSite is one call expression inside a caller, with its resolved
// package-local callees. Resolved is false when the target may lie
// outside the package or past the CHA bound.
type CallSite struct {
	Caller   *Node
	Call     *ast.CallExpr
	Callees  []*Node
	Resolved bool
}

// Graph is the package call graph.
type Graph struct {
	Pkg   *types.Package
	Info  *types.Info
	Nodes map[*types.Func]*Node

	callers map[*types.Func][]*CallSite
}

// Build constructs the call graph of one package.
func Build(pkg *types.Package, info *types.Info, files []*ast.File) *Graph {
	g := &Graph{
		Pkg:     pkg,
		Info:    info,
		Nodes:   map[*types.Func]*Node{},
		callers: map[*types.Func][]*CallSite{},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Nodes[fn] = &Node{Func: fn, Decl: fd}
		}
	}
	for _, node := range g.Nodes {
		g.scanBody(node)
	}
	return g
}

// scanBody records the node's call sites.
func (g *Graph) scanBody(node *Node) {
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callees, resolved := g.resolveCallees(call)
			site := &CallSite{Caller: node, Call: call, Callees: callees, Resolved: resolved}
			node.calls = append(node.calls, site)
			for _, c := range callees {
				g.callers[c.Func] = append(g.callers[c.Func], site)
			}
		}
		return true
	})
}

// CallersOf returns every recorded call site that may invoke fn.
func (g *Graph) CallersOf(fn *types.Func) []*CallSite { return g.callers[fn] }

// Calls returns the node's call sites.
func (n *Node) Calls() []*CallSite { return n.calls }

// CalleesOf resolves one call expression to its package-local callee
// nodes (empty for opaque cross-package or dynamic calls).
func (g *Graph) CalleesOf(call *ast.CallExpr) []*Node {
	nodes, _ := g.resolveCallees(call)
	return nodes
}

// resolveCallees maps one call expression to package-local nodes.
func (g *Graph) resolveCallees(call *ast.CallExpr) ([]*Node, bool) {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := g.Info.Uses[fun].(*types.Func); ok {
			if node := g.Nodes[fn]; node != nil {
				return []*Node{node}, true
			}
			return nil, false // builtin or dot-imported
		}
		return nil, false // closure variable or conversion
	case *ast.SelectorExpr:
		if sel, ok := g.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, false
			}
			if types.IsInterface(recvType(m)) {
				return g.chaResolve(m)
			}
			if node := g.Nodes[m]; node != nil {
				return []*Node{node}, true
			}
			return nil, false
		}
		// Package-qualified call (pkg.F) or method expression.
		if fn, ok := g.Info.Uses[fun.Sel].(*types.Func); ok {
			if node := g.Nodes[fn]; node != nil {
				return []*Node{node}, true
			}
			return nil, false
		}
		return nil, false
	default:
		return nil, false
	}
}

// recvType returns the receiver type of a method, nil for functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// chaResolve finds every package-declared concrete type implementing
// the interface that declares m, and returns their implementations of
// m. Past MaxInterfaceImpls the site stays dynamic.
func (g *Graph) chaResolve(m *types.Func) ([]*Node, bool) {
	iface, ok := recvType(m).Underlying().(*types.Interface)
	if !ok {
		return nil, false
	}
	var out []*Node
	scope := g.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		T := tn.Type()
		if types.IsInterface(T) {
			continue
		}
		for _, typ := range []types.Type{T, types.NewPointer(T)} {
			if !types.Implements(typ, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(typ, true, g.Pkg, m.Name())
			impl, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if node := g.Nodes[impl]; node != nil {
				out = append(out, node)
				if len(out) > MaxInterfaceImpls {
					return nil, false
				}
			}
			break // T and *T share the method declaration
		}
	}
	// CHA over one package can never be complete when the interface is
	// exported (an implementation may live elsewhere), so interface
	// sites are resolved-with-residue: callees listed, Resolved false.
	return out, false
}

// keyID renders a Key for internal set membership.
func keyID(k Key) string {
	return strconv.Itoa(int(k.Root.Pos())) + k.Path
}
