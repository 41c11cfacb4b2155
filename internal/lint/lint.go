// Package lint wires the bflint analyzers to the repo's package layout:
// which analyzer binds to which package, how diagnostics are filtered
// by //bflint:ignore comments, and the shared run loop used by both the
// standalone cmd/bflint driver and its `go vet -vettool` mode.
//
// The suite enforces three repo-wide contracts that previously existed
// only by convention:
//
//   - determinism: simulators are functions of (params, seed) alone
//     (detrand forbids wall-clock and global-rand escapes; maporder
//     forbids order-sensitive work under Go's randomized map order);
//   - conservation: every packet lands in exactly one accounting bucket
//     (conscount restricts counter writes to the owning package);
//   - facade: blessed internal packages stay fully re-exported through
//     the root bfvlsi package (facadecheck);
//
// plus the CLI error-path audit (errflush) for flush/close paths, and —
// on the internal/lint/cfg control-flow graphs and the
// internal/lint/callgraph call-graph/lockset engine — the guarded-field
// contract: //bflint:guardedby annotations hold on every CFG path,
// through unexported helpers (lockcheck). Goroutine fan-outs are not
// linted: they all run on internal/par, whose tests and the -race runs
// over the sweeps built on it check joins and shared writes.
//
// Sharing the call graph through internal/lint/schema, the suite also
// checks the serialization contracts:
//
//   - wire coverage: every field of a MarshalBinary/UnmarshalBinary
//     type is read in Marshal's call reach and written in Unmarshal's,
//     in the same order on both sides (wirecover);
//   - checkpoint coverage: simulator state structs captured by
//     internal/snapshot have every field written in the capture path
//     and read in the restore path (statecover);
//   - schema locking: a type's field schema fingerprint plus version
//     byte must match the committed internal/wire/schema.lock; field
//     changes without a version bump or a `bflint -writeschema`
//     regeneration fail the lint (schemalock).
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bfvlsi/internal/lint/analysis"
	"bfvlsi/internal/lint/conscount"
	"bfvlsi/internal/lint/detrand"
	"bfvlsi/internal/lint/errflush"
	"bfvlsi/internal/lint/facadecheck"
	"bfvlsi/internal/lint/lockcheck"
	"bfvlsi/internal/lint/maporder"
	"bfvlsi/internal/lint/schemalock"
	"bfvlsi/internal/lint/statecover"
	"bfvlsi/internal/lint/wirecover"
)

// modulePath is the import-path root of this repository.
const modulePath = "bfvlsi"

// simulatorPackages are the packages bound by the determinism
// contract: their behaviour must be a pure function of (params, seed).
var simulatorPackages = map[string]bool{
	modulePath + "/internal/routing":     true,
	modulePath + "/internal/faults":      true,
	modulePath + "/internal/reliable":    true,
	modulePath + "/internal/adaptive":    true,
	modulePath + "/internal/experiments": true,
}

// servicePackages are the long-running daemon packages bound by the
// determinism contract for a different reason than simulators: a
// content-addressed cache is only sound if responses are pure functions
// of the spec, so wall-clock reads must stay behind the injected clock
// (the single time.Now call in cmd/bfserve carries an explicit ignore).
var servicePackages = map[string]bool{
	modulePath + "/internal/serve":          true,
	modulePath + "/cmd/bfserve":             true,
	modulePath + "/internal/dispatch":       true,
	modulePath + "/internal/dispatch/chaos": true,
	modulePath + "/cmd/bffarm":              true,
}

// checkpointPackages extend the determinism contract to the
// snapshot/resume layer: a checkpoint restore is only byte-identical to
// the uninterrupted run if capture and restore are pure functions of
// the serialized state, and the sweep farm's journal replay inherits
// the same obligation point by point.
var checkpointPackages = map[string]bool{
	modulePath + "/internal/snapshot":  true,
	modulePath + "/internal/sweepfarm": true,
	modulePath + "/cmd/bfsweep":        true,
}

// Suite returns every analyzer bflint ships, for drivers and help
// listings.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		maporder.Analyzer,
		conscount.Analyzer,
		facadecheck.Analyzer,
		errflush.Analyzer,
		lockcheck.Analyzer,
		wirecover.Analyzer,
		statecover.Analyzer,
		schemalock.Analyzer,
	}
}

// wirePackages are the packages whose binary marshalers carry the wire
// round-trip and schema-lock contracts: the wire format itself and the
// checkpoint frames layered on it.
var wirePackages = map[string]bool{
	modulePath + "/internal/wire":     true,
	modulePath + "/internal/snapshot": true,
}

// WirePackagePaths returns the packages whose binary marshalers the
// schema manifest covers, sorted; `bflint -writeschema` loads exactly
// these, so the manifest and the schemalock binding cannot drift.
func WirePackagePaths() []string {
	paths := make([]string, 0, len(wirePackages))
	for p := range wirePackages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// statePackages are the packages whose State/Restore pairs feed
// internal/snapshot checkpoints: new simulator state must round-trip
// through capture and restore.
var statePackages = map[string]bool{
	modulePath + "/internal/routing":  true,
	modulePath + "/internal/reliable": true,
	modulePath + "/internal/adaptive": true,
	modulePath + "/internal/snapshot": true,
}

// AnalyzersFor returns the suite subset that binds to the package with
// the given import path.
func AnalyzersFor(pkgPath string) []*analysis.Analyzer {
	inModule := pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/")
	if !inModule {
		return nil
	}
	var out []*analysis.Analyzer
	if simulatorPackages[pkgPath] || servicePackages[pkgPath] || checkpointPackages[pkgPath] {
		out = append(out, detrand.Analyzer)
	}
	// The map-order, conservation, and guarded-field contracts bind
	// everywhere in the module: a golden trace is only as deterministic
	// as its least deterministic caller, and any package may annotate a
	// //bflint:guardedby field.
	out = append(out, maporder.Analyzer, conscount.Analyzer, lockcheck.Analyzer)
	if wirePackages[pkgPath] {
		out = append(out, wirecover.Analyzer, schemalock.Analyzer)
	}
	if statePackages[pkgPath] {
		out = append(out, statecover.Analyzer)
	}
	if pkgPath == modulePath {
		out = append(out, facadecheck.Analyzer)
	}
	if strings.HasPrefix(pkgPath, modulePath+"/cmd/") ||
		strings.HasPrefix(pkgPath, modulePath+"/examples/") ||
		strings.HasPrefix(pkgPath, modulePath+"/internal/experiments") ||
		pkgPath == modulePath+"/internal/serve" ||
		pkgPath == modulePath+"/internal/sweepfarm" ||
		pkgPath == modulePath+"/internal/dispatch" {
		out = append(out, errflush.Analyzer)
	}
	return out
}

// Run applies every analyzer bound to pkgPath to one type-checked
// package and returns the surviving diagnostics, ignore-filtered and
// sorted by position.
func Run(pkgPath string, fset *token.FileSet, files []*ast.File, tpkg *types.Package, info *types.Info) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range AnalyzersFor(pkgPath) {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       tpkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			d.Category = name
			diags = append(diags, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	diags = filterIgnored(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// filterIgnored drops diagnostics whose source line carries a
// `//bflint:ignore` comment naming the analyzer (or naming none, which
// suppresses all analyzers on that line).
func filterIgnored(fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) []analysis.Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	// ignores[file][line] is the set of suppressed analyzer names;
	// an empty set suppresses everything.
	ignores := map[string]map[int]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if strings.HasPrefix(text, "//") {
					text = text[2:]
				} else {
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "bflint:ignore") {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := ignores[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					ignores[pos.Filename] = byLine
				}
				names := map[string]bool{}
				for _, n := range strings.FieldsFunc(strings.TrimPrefix(text, "bflint:ignore"), func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					names[n] = true
				}
				// Multiple ignore comments on one line union their names;
				// a bare ignore (empty set = suppress all) absorbs any
				// named one. Overwriting here would make one comment
				// silently cancel another.
				if existing, seen := byLine[pos.Line]; seen {
					if len(existing) == 0 || len(names) == 0 {
						byLine[pos.Line] = map[string]bool{}
					} else {
						for n := range names {
							existing[n] = true
						}
					}
				} else {
					byLine[pos.Line] = names
				}
			}
		}
	}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if names, ok := ignores[pos.Filename][pos.Line]; ok {
			if len(names) == 0 || names[d.Category] {
				continue
			}
		}
		kept = append(kept, d)
	}
	return kept
}
