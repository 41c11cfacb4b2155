// Command bflint runs the repo's custom static-analysis suite — the
// mechanical form of the determinism, conservation, flush/close and
// guarded-field contracts (see internal/lint).
//
// Standalone mode expands the patterns with `go list`:
//
//	go run ./cmd/bflint ./...
//
// It also speaks the `go vet -vettool` protocol, so the same binary
// plugs into the build cache and test-variant coverage of the go
// command:
//
//	go build -o bin/bflint ./cmd/bflint
//	go vet -vettool=$PWD/bin/bflint ./...
//
// Both modes type-check through internal/lint/load: the linted package
// from source, its imports from the compiler's export data.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bfvlsi/internal/lint"
	"bfvlsi/internal/lint/analysis"
	"bfvlsi/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bflint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bflint [-json|-sarif] [packages]\n       bflint unit.cfg   (go vet -vettool mode)\n\nanalyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flagsJSON := fs.Bool("flags", false, "describe flags in JSON (go vet protocol)")
	jsonOut := fs.Bool("json", false, "emit findings and a per-analyzer summary as JSON on stdout (standalone mode only)")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout (standalone mode only)")
	if err := parseArgs(fs, args); err != nil {
		return 2
	}

	if *flagsJSON {
		// bflint defines no tool flags beyond the protocol ones; -json
		// and -sarif are standalone-only and not advertised to go vet.
		fmt.Println("[]")
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "bflint: -json and -sarif are mutually exclusive")
		return 2
	}
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVet(rest[0])
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	mode := outText
	switch {
	case *jsonOut:
		mode = outJSON
	case *sarifOut:
		mode = outSARIF
	}
	return runStandalone(rest, mode)
}

// parseArgs handles -V=full before normal flag parsing: the go command
// probes the tool with it to build a cache key, and expects the reply
// on stdout in the objabi.AddVersionFlag format.
func parseArgs(fs *flag.FlagSet, args []string) error {
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			printVersion()
			os.Exit(0)
		}
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := analysis.Validate(lint.Suite()); err != nil {
		fmt.Fprintln(os.Stderr, "bflint:", err)
		os.Exit(2)
	}
	return nil
}

// printVersion emits the executable identity line `go vet` uses for
// build caching: content-hashing the binary means any rebuild of the
// suite invalidates cached vet results.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bflint:", err)
		os.Exit(2)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bflint:", err)
		os.Exit(2)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, "bflint:", err)
		os.Exit(2)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bflint:", err)
		os.Exit(2)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", exe, h.Sum(nil))
}

// jsonDiagnostic is one finding in -json output. The field names are a
// stable contract: the CI annotation step turns them into
// `::error file=...,line=...` workflow commands with jq. Analyzer and
// Category carry the same value; Category predates the per-analyzer
// summary and stays for older consumers.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Category string `json:"category"`
	Message  string `json:"message"`
}

// jsonReport is the -json output document: the findings plus an
// end-of-run per-analyzer count summary, so CI can gate on
// `.summary.total` and dashboards can trend `.summary.by_analyzer`
// without re-aggregating.
type jsonReport struct {
	Findings []jsonDiagnostic `json:"findings"`
	Summary  jsonSummary      `json:"summary"`
}

type jsonSummary struct {
	Total      int            `json:"total"`
	ByAnalyzer map[string]int `json:"by_analyzer"`
}

// emitJSON writes the report document; a clean run emits an empty
// findings array and zeroed summary rather than nulls so consumers can
// always index the result.
func emitJSON(w io.Writer, found []jsonDiagnostic) error {
	if found == nil {
		found = []jsonDiagnostic{}
	}
	report := jsonReport{
		Findings: found,
		Summary:  jsonSummary{Total: len(found), ByAnalyzer: map[string]int{}},
	}
	for _, d := range found {
		report.Summary.ByAnalyzer[d.Analyzer]++
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// outputMode selects the standalone findings format.
type outputMode int

const (
	outText outputMode = iota
	outJSON
	outSARIF
)

// runStandalone loads the patterns and lints each package.
func runStandalone(patterns []string, mode outputMode) int {
	pkgs, err := load.New().Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bflint:", err)
		return 2
	}
	return lintPackages(pkgs, mode)
}

// lintPackages runs the bound analyzers over each package and reports
// the findings in the given format.
func lintPackages(pkgs []*load.Package, mode outputMode) int {
	var found []jsonDiagnostic
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bflint: %s: %v\n", pkg.Path, err)
			return 2
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			found = append(found, jsonDiagnostic{
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Category,
				Category: d.Category,
				Message:  d.Message,
			})
			if mode == outText {
				fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", pos, d.Message, d.Category)
			}
		}
	}
	switch mode {
	case outJSON:
		if err := emitJSON(os.Stdout, found); err != nil {
			fmt.Fprintln(os.Stderr, "bflint:", err)
			return 2
		}
	case outSARIF:
		if err := emitSARIF(os.Stdout, found); err != nil {
			fmt.Fprintln(os.Stderr, "bflint:", err)
			return 2
		}
	}
	if len(found) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the subset of the compilation-unit description `go vet`
// hands the tool that bflint reads; field names follow the x/tools
// unitchecker Config.
type vetConfig struct {
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVet analyzes one compilation unit under the go vet protocol.
func runVet(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bflint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "bflint: decoding %s: %v\n", cfgPath, err)
		return 2
	}
	// bflint keeps no cross-package facts, but the protocol requires
	// the facts file to exist for downstream units.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "bflint:", err)
			return 2
		}
	}
	// Packages outside the module (stdlib deps being vetted for facts)
	// have no bound analyzers; skip the type-check entirely.
	if cfg.VetxOnly || len(lint.AnalyzersFor(cfg.ImportPath)) == 0 {
		return 0
	}
	pkg, err := load.ForUnit(cfg.ImportMap, cfg.PackageFile, cfg.GoVersion).Check(cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "bflint:", err)
		return 2
	}
	return lintPackages([]*load.Package{pkg}, outText)
}
