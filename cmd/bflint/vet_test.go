package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bfvlsi/internal/lint"
	"bfvlsi/internal/lint/load"
)

// exportUnit returns the ImportMap and PackageFile of a vet unit that
// imports the named packages: every package go list reaches from them,
// mapped to itself and to its export data file.
func exportUnit(t *testing.T, imports ...string) (importMap, packageFile map[string]string) {
	t.Helper()
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, imports...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	importMap, packageFile = map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, export, _ := strings.Cut(line, " ")
		importMap[path] = path
		if export != "" {
			packageFile[path] = export
		}
	}
	return importMap, packageFile
}

// goFiles returns the absolute paths of a module package's Go files.
func goFiles(t *testing.T, pkg string) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}`, pkg).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", pkg, err)
	}
	return strings.Fields(string(out))
}

// runUnit writes cfg as a vet unit config, runs bflint on it the way
// go vet does, and returns the exit code and what bflint wrote to
// stderr.
func runUnit(t *testing.T, cfg vetConfig) (int, string) {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "unit.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	code := run([]string{cfgPath})
	w.Close()
	os.Stderr = old
	stderr, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(stderr)
}

// A clean module package exits 0 and leaves the facts file go vet
// expects downstream units to find.
func TestVetUnitCleanPackage(t *testing.T) {
	const pkg = "bfvlsi/internal/dispatch"
	importMap, packageFile := exportUnit(t, pkg)
	vetx := filepath.Join(t.TempDir(), "vet.out")
	code, stderr := runUnit(t, vetConfig{
		ImportPath:  pkg,
		GoFiles:     goFiles(t, pkg),
		ImportMap:   importMap,
		PackageFile: packageFile,
		VetxOutput:  vetx,
	})
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

// A fixture bound by import path under cmd/ (so errflush runs) exits 1
// and reports exactly what standalone loading of the same files does:
// the two modes share one type-check path.
func TestVetUnitReportsStandaloneFindings(t *testing.T) {
	const pkg = "bfvlsi/cmd/flushfix"
	dir := filepath.Join("..", "..", "internal", "lint", "errflush", "testdata", "src", "flushfix")
	files := []string{filepath.Join(dir, "flushfix.go")}

	standalone, err := load.New().Check(pkg, dir, files)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkg, standalone.Fset, standalone.Files, standalone.Types, standalone.Info)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&want, "%s: %s (%s)\n", standalone.Fset.Position(d.Pos), d.Message, d.Category)
	}
	if !strings.Contains(want.String(), "(errflush)") {
		t.Fatalf("standalone check found no errflush diagnostic:\n%s", want.String())
	}

	importMap, packageFile := exportUnit(t, "os", "text/tabwriter")
	code, stderr := runUnit(t, vetConfig{
		ImportPath:  pkg,
		Dir:         dir,
		GoFiles:     files,
		ImportMap:   importMap,
		PackageFile: packageFile,
	})
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr)
	}
	if stderr != want.String() {
		t.Errorf("vet mode reported:\n%s\nstandalone reported:\n%s", stderr, want.String())
	}
}

// A VetxOnly unit only asks for facts: bflint writes the facts file and
// exits 0 without type-checking (its one Go file does not exist).
func TestVetUnitVetxOnlySkipsTypeCheck(t *testing.T) {
	vetx := filepath.Join(t.TempDir(), "vet.out")
	code, stderr := runUnit(t, vetConfig{
		ImportPath: "bfvlsi/internal/dispatch",
		GoFiles:    []string{filepath.Join(t.TempDir(), "missing.go")},
		VetxOnly:   true,
		VetxOutput: vetx,
	})
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

// A unit that does not type-check fails the vet run (exit 2) unless go
// vet sets SucceedOnTypecheckFailure, as it does for units it knows the
// compiler will reject on its own.
func TestVetUnitTypecheckFailure(t *testing.T) {
	for _, succeed := range []bool{false, true} {
		code, stderr := runUnit(t, vetConfig{
			ImportPath:                "bfvlsi/internal/dispatch",
			GoFiles:                   []string{filepath.Join(t.TempDir(), "missing.go")},
			SucceedOnTypecheckFailure: succeed,
		})
		want := 2
		if succeed {
			want = 0
		}
		if code != want {
			t.Errorf("SucceedOnTypecheckFailure=%v: exit code %d, want %d; stderr:\n%s", succeed, code, want, stderr)
		}
	}
}
