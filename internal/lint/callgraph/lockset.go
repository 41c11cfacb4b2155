package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"bfvlsi/internal/lint/cfg"
)

// LockInfo is the result of the intraprocedural lockset analysis of one
// function body: for every statement (and every branch condition), the
// set of locks that is held on EVERY path reaching it — a forward
// must-analysis over the internal/lint/cfg graph.
//
// A lock is "held" after a direct x.Lock()/x.RLock() call on a pure
// variable path x, and released by the matching Unlock()/RUnlock().
// Deferred unlocks run at function exit and therefore do not release
// within the body. Lock calls inside `go`/`defer` statements or nested
// function literals do not affect the enclosing function's state, and
// locks taken through helper calls are invisible (a documented
// soundness limit: write the helper's callers against the helper's
// contract, not its implementation).
type LockInfo struct {
	spans []lockSpan
}

type lockSpan struct {
	pos, end token.Pos
	held     *lockset
}

// lockset is a set of Keys; nil map with all=true is the ⊤ element
// (unvisited: every lock notionally held).
type lockset struct {
	all bool
	m   map[string]Key
}

var topLockset = &lockset{all: true}

func emptyLockset() *lockset { return &lockset{m: map[string]Key{}} }

func (s *lockset) clone() *lockset {
	if s.all {
		return topLockset
	}
	m := make(map[string]Key, len(s.m))
	for k, v := range s.m {
		m[k] = v
	}
	return &lockset{m: m}
}

func (s *lockset) equal(o *lockset) bool {
	if s.all || o.all {
		return s.all == o.all
	}
	if len(s.m) != len(o.m) {
		return false
	}
	for k := range s.m {
		if _, ok := o.m[k]; !ok {
			return false
		}
	}
	return true
}

// intersect returns the meet of two states (⊤ is the identity).
func intersect(a, b *lockset) *lockset {
	if a == nil || a.all {
		return b
	}
	if b == nil || b.all {
		return a
	}
	out := emptyLockset()
	for k, v := range a.m {
		if _, ok := b.m[k]; ok {
			out.m[k] = v
		}
	}
	return out
}

// Locksets runs the analysis over one function body.
func Locksets(info *types.Info, body *ast.BlockStmt) *LockInfo {
	g := cfg.Build(body)
	in := make([]*lockset, len(g.Blocks))
	for i := range in {
		in[i] = topLockset
	}
	in[g.Entry.Index] = emptyLockset()

	li := &LockInfo{}
	record := func(pos, end token.Pos, held *lockset) {
		li.spans = append(li.spans, lockSpan{pos: pos, end: end, held: held})
	}

	// Iterate to a fixed point, then one final recording pass.
	for pass := 0; ; pass++ {
		changed := false
		final := false
		if pass > len(g.Blocks)+2 {
			final = true // safety: states only shrink, so this converges; cap anyway
		}
		for _, blk := range g.Blocks {
			state := in[blk.Index].clone()
			for _, s := range blk.Stmts {
				if final {
					record(s.Pos(), s.End(), state)
				}
				state = applyStmt(info, s, state)
			}
			for _, e := range blk.Succs {
				if e.Cond != nil && final {
					record(e.Cond.Pos(), e.Cond.End(), state)
				}
				merged := intersect(in[e.To.Index], state)
				if !merged.equal(in[e.To.Index]) {
					in[e.To.Index] = merged
					changed = true
				}
			}
		}
		if final {
			break
		}
		if !changed {
			// Converged: run one more pass that records.
			for _, blk := range g.Blocks {
				state := in[blk.Index].clone()
				for _, s := range blk.Stmts {
					record(s.Pos(), s.End(), state)
					state = applyStmt(info, s, state)
				}
				for _, e := range blk.Succs {
					if e.Cond != nil {
						record(e.Cond.Pos(), e.Cond.End(), state)
					}
				}
			}
			break
		}
	}
	return li
}

// applyStmt returns the state after executing one straight-line
// statement: direct Lock/RLock calls add their key, Unlock/RUnlock
// remove it. Range statements appear whole in their head block; their
// bodies are separate blocks, so only the range expression is scanned.
func applyStmt(info *types.Info, s ast.Stmt, state *lockset) *lockset {
	switch s := s.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return state // runs elsewhere / later
	case *ast.RangeStmt:
		return state // body handled block-by-block
	default:
		_ = s
	}
	out := state
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if key, op, ok := lockCall(info, n); ok {
				if out == state {
					out = state.clone()
					if out.all {
						out = emptyLockset()
					}
				}
				if op {
					out.m[keyID(key)] = key
				} else {
					delete(out.m, keyID(key))
				}
			}
		}
		return true
	})
	return out
}

// lockCall recognizes x.Lock()/x.RLock() (acquire=true) and
// x.Unlock()/x.RUnlock() (acquire=false) method calls on a pure
// variable path x.
func lockCall(info *types.Info, call *ast.CallExpr) (Key, bool, bool) {
	sel, ok := Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return Key{}, false, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return Key{}, false, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return Key{}, false, false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return Key{}, false, false
	}
	key, ok := PathOf(info, sel.X)
	if !ok {
		return Key{}, false, false
	}
	return key, acquire, true
}

// Holds reports whether the named lock is must-held at pos: in the
// state recorded for the innermost statement or branch condition
// containing it. Positions outside any recorded span (dead code) hold
// nothing.
func (li *LockInfo) Holds(pos token.Pos, key Key) bool {
	var best *lockSpan
	for i := range li.spans {
		sp := &li.spans[i]
		if pos < sp.pos || pos > sp.end {
			continue
		}
		if best == nil || (sp.end-sp.pos) < (best.end-best.pos) {
			best = sp
		}
	}
	if best == nil || best.held.all {
		return false
	}
	for _, k := range best.held.m {
		if k == key {
			return true
		}
	}
	return false
}

// Locksets returns (building on first use) the node's lockset analysis.
func (g *Graph) Locksets(n *Node) *LockInfo {
	if n.locks == nil {
		n.locks = Locksets(g.Info, n.Decl.Body)
	}
	return n.locks
}
