package lint_test

import (
	"go/ast"
	"go/parser"
	"os"
	"strings"
	"testing"

	"bfvlsi/internal/lint"
	"bfvlsi/internal/lint/load"
)

// concurrencyAnalyzers are the concurrency-contract analyzers this file
// gates on: lockcheck's interprocedural lockset check must run clean
// over the tree, independently of what the rest of the suite does.
var concurrencyAnalyzers = map[string]bool{"lockcheck": true}

// TestConcurrencyAnalyzersCleanOnRepo asserts lockcheck reports zero
// findings across the module. The annotated structs (serve's cache,
// dispatch's breaker and lease tables, sweepfarm's journal) are the
// real fixtures here: a regression that drops a lock fails this test.
func TestConcurrencyAnalyzersCleanOnRepo(t *testing.T) {
	assertCleanOnRepo(t, "concurrency analyzers are", concurrencyAnalyzers)
}

// TestLockcheckCatchesUnguardedCacheAccess is the mutation test: take
// the real internal/serve cache, strip the lock from stats(), and
// assert lockcheck flags the now-unguarded access to the annotated
// fields. This proves the repo-clean test above is load-bearing — the
// annotations fire on exactly the regression they exist to stop.
func TestLockcheckCatchesUnguardedCacheAccess(t *testing.T) {
	src, err := os.ReadFile("../serve/cache.go")
	if err != nil {
		t.Fatal(err)
	}
	const guard = "c.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.order.Len(), c.bytes, c.evicted"
	const unguarded = "return c.order.Len(), c.bytes, c.evicted"
	mutated := strings.Replace(string(src), guard, unguarded, 1)
	if mutated == string(src) {
		t.Fatalf("mutation did not apply; stats() no longer matches:\n%s", guard)
	}

	l := load.New()
	f, err := parser.ParseFile(l.Fset, "cache.go", mutated, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckFiles("bfvlsi/internal/serve", "", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Category != "lockcheck" {
			t.Errorf("unexpected %s diagnostic on the mutated cache: %s", d.Category, d.Message)
			continue
		}
		if strings.Contains(d.Message, "c.mu") && strings.Contains(d.Message, "guardedby") {
			found = true
		}
	}
	if !found {
		t.Error("lockcheck did not flag the un-guarded stats() access")
	}
}
