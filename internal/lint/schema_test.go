package lint_test

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bfvlsi/internal/lint"
	"bfvlsi/internal/lint/load"
)

// schemaAnalyzers are the v4 serialization-contract analyzers this file
// gates on: wire/snapshot field coverage, checkpoint capture/restore
// coverage, and the schema.lock fingerprint pin.
var schemaAnalyzers = map[string]bool{
	"wirecover": true, "statecover": true, "schemalock": true,
}

// TestSchemaAnalyzersCleanOnRepo asserts the three schema analyzers
// report zero findings across the module: every wire field is encoded
// and decoded, every checkpoint field is captured and restored, and the
// committed schema.lock matches the code.
func TestSchemaAnalyzersCleanOnRepo(t *testing.T) {
	assertCleanOnRepo(t, "schema analyzers are", schemaAnalyzers)
}

// loadMutated parses every non-test file of the package under dir,
// applying old→new to the named file, and type-checks the result. File
// names keep their directory so schemalock resolves the same
// schema.lock the real package uses.
func loadMutated(t *testing.T, pkgPath, dir, mutateFile, old, new string) *load.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := load.New()
	var files []*ast.File
	applied := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if name == mutateFile {
			text = strings.Replace(text, old, new, 1)
			if text == string(src) {
				t.Fatalf("mutation did not apply; %s no longer contains:\n%s", mutateFile, old)
			}
			applied = true
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), text, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if !applied {
		t.Fatalf("mutation target %s not found in %s", mutateFile, dir)
	}
	pkg, err := l.CheckFiles(pkgPath, "", files)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// runMutated lints the mutated package and returns the diagnostics of
// one analyzer. Sibling analyzers may legitimately fire on the same
// mutation (adding a field trips wirecover as well as schemalock), so
// unexpected categories are not errors here.
func runMutated(t *testing.T, pkg *load.Package, category string) []string {
	t.Helper()
	diags, err := lint.Run(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		if d.Category == category {
			msgs = append(msgs, d.Message)
		}
	}
	return msgs
}

// TestWirecoverCatchesDroppedEncode deletes the FaultSpec.LinkRate
// encode line from the real wire package and asserts wirecover reports
// the field as never read on the marshal side.
func TestWirecoverCatchesDroppedEncode(t *testing.T) {
	pkg := loadMutated(t, "bfvlsi/internal/wire", "../wire", "fault.go",
		"\te.float64(s.LinkRate)\n", "")
	msgs := runMutated(t, pkg, "wirecover")
	for _, m := range msgs {
		if strings.Contains(m, "LinkRate") && strings.Contains(m, "never read") {
			return
		}
	}
	t.Errorf("wirecover did not flag the dropped LinkRate encode; got %q", msgs)
}

// TestSchemalockCatchesFieldAddition adds a FaultSpec field without
// bumping VersionFaultSpec and asserts schemalock demands the bump.
func TestSchemalockCatchesFieldAddition(t *testing.T) {
	pkg := loadMutated(t, "bfvlsi/internal/wire", "../wire", "fault.go",
		"\tLinkRate float64\n", "\tLinkRate float64\n\tAddedRate float64\n")
	msgs := runMutated(t, pkg, "schemalock")
	for _, m := range msgs {
		if strings.Contains(m, "FaultSpec") && strings.Contains(m, "bump the version") {
			return
		}
	}
	t.Errorf("schemalock did not demand a version bump for the added field; got %q", msgs)
}

// TestStatecoverCatchesDroppedRestore deletes the HaveMap restore
// assignment from the real adaptive router and asserts statecover
// reports the field as never read on the restore side.
func TestStatecoverCatchesDroppedRestore(t *testing.T) {
	pkg := loadMutated(t, "bfvlsi/internal/adaptive", "../adaptive", "state.go",
		"\tr.haveMap = st.HaveMap\n", "")
	msgs := runMutated(t, pkg, "statecover")
	for _, m := range msgs {
		if strings.Contains(m, "HaveMap") && strings.Contains(m, "never read in the restore path") {
			return
		}
	}
	t.Errorf("statecover did not flag the dropped HaveMap restore; got %q", msgs)
}
