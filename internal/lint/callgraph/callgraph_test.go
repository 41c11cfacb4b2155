package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"bfvlsi/internal/lint/load"
)

// check type-checks one source string as package p and builds its graph.
func check(t *testing.T, src string) *Graph {
	t.Helper()
	l := load.New()
	f, err := parseOne(l, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg, err := l.CheckFiles("p", "", []*ast.File{f})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return Build(pkg.Types, pkg.Info, pkg.Files)
}

func parseOne(l *load.Loader, src string) (*ast.File, error) {
	return parser.ParseFile(l.Fset, "p.go", src, parser.ParseComments)
}

// findFunc returns the graph node with the given name.
func findFunc(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for fn, n := range g.Nodes {
		if fn.Name() == name {
			return n
		}
	}
	t.Fatalf("function %s not in graph", name)
	return nil
}

// findIdent returns the position of the first identifier with the given
// name inside the node's body (skipping the one at skip occurrences).
func findIdent(t *testing.T, n *Node, name string, skip int) token.Pos {
	t.Helper()
	var pos token.Pos
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && id.Name == name {
			if skip == 0 {
				pos = id.Pos()
				return false
			}
			skip--
		}
		return true
	})
	if pos == token.NoPos {
		t.Fatalf("ident %s not found in %s", name, n.Func.Name())
	}
	return pos
}

func TestGraphResolution(t *testing.T) {
	g := check(t, `package p

type adder interface{ add(int) }

type counter struct{ n int }

func (c *counter) add(d int) { c.n += d }

type gauge struct{ v int }

func (g *gauge) add(d int) { g.v = d }

func direct(c *counter) { c.add(1) }

func dynamic(a adder) { a.add(2) }

func chain() { direct(nil) }
`)
	// callerNames lists the functions holding a call site of the named
	// method of the named receiver type.
	callerNames := func(recv, method string) map[string]int {
		t.Helper()
		for fn := range g.Nodes {
			sig := fn.Type().(*types.Signature)
			if fn.Name() == method && sig.Recv() != nil && types.TypeString(sig.Recv().Type(), nil) == "*p."+recv {
				names := map[string]int{}
				for _, site := range g.CallersOf(fn) {
					names[site.Caller.Func.Name()]++
				}
				return names
			}
		}
		t.Fatalf("(*%s).%s not in graph", recv, method)
		return nil
	}
	// The direct call and the CHA edge from the dynamic site reach
	// (*counter).add; only the dynamic site reaches (*gauge).add.
	if got := callerNames("counter", "add"); len(got) != 2 || got["direct"] != 1 || got["dynamic"] != 1 {
		t.Errorf("callers of (*counter).add = %v, want direct and dynamic once each", got)
	}
	if got := callerNames("gauge", "add"); len(got) != 1 || got["dynamic"] != 1 {
		t.Errorf("callers of (*gauge).add = %v, want dynamic once", got)
	}
	if got := g.CallersOf(findFunc(t, g, "direct").Func); len(got) != 1 || got[0].Caller.Func.Name() != "chain" {
		t.Errorf("callers of direct = %v, want chain", got)
	}
}

func TestLocksets(t *testing.T) {
	g := check(t, `package p

import "sync"

type c struct {
	mu sync.Mutex
	n  int
}

func (x *c) good() {
	x.mu.Lock()
	x.n = 1
	x.mu.Unlock()
	x.n = 2
}

func (x *c) deferred() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.n = 3
}

func (x *c) branchy(b bool) {
	if b {
		x.mu.Lock()
	}
	x.n = 4
}

func (x *c) bothArms(b bool) {
	if b {
		x.mu.Lock()
	} else {
		x.mu.Lock()
	}
	x.n = 5
}
`)
	muKey := func(n *Node) Key {
		recv := n.Func.Type().(*types.Signature).Recv()
		return Key{Root: recv, Path: ".mu"}
	}

	good := findFunc(t, g, "good")
	li := g.Locksets(good)
	// "n" idents in body: x.n = 1 (sel), x.n = 2. Occurrence 0 is inside
	// the locked region, the next is after Unlock.
	if !li.Holds(findIdent(t, good, "n", 0), muKey(good)) {
		t.Fatal("first write must be under the lock")
	}
	if li.Holds(findIdent(t, good, "n", 1), muKey(good)) {
		t.Fatal("write after Unlock must not be under the lock")
	}

	def := findFunc(t, g, "deferred")
	if !g.Locksets(def).Holds(findIdent(t, def, "n", 0), muKey(def)) {
		t.Fatal("deferred unlock must not release within the body")
	}

	br := findFunc(t, g, "branchy")
	if g.Locksets(br).Holds(findIdent(t, br, "n", 0), muKey(br)) {
		t.Fatal("lock on one arm only is not must-held")
	}

	both := findFunc(t, g, "bothArms")
	if !g.Locksets(both).Holds(findIdent(t, both, "n", 0), muKey(both)) {
		t.Fatal("lock on both arms is must-held at the join")
	}
}
