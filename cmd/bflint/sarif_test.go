package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The SARIF shape is load-bearing: CI's jq expression indexes
// .runs[0].results[].locations[0].physicalLocation. Pin it.
func TestEmitSARIFSchema(t *testing.T) {
	var sb strings.Builder
	err := emitSARIF(&sb, []jsonDiagnostic{
		{
			File:     "internal/wire/fault.go",
			Line:     120,
			Column:   2,
			Analyzer: "wirecover",
			Category: "wirecover",
			Message:  "field FaultSpec.LinkRate is never read",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var decoded sarifLog
	dec := json.NewDecoder(strings.NewReader(sb.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("output is not a SARIF log: %v\n%s", err, sb.String())
	}
	if decoded.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", decoded.Version)
	}
	if len(decoded.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(decoded.Runs))
	}
	run := decoded.Runs[0]
	if run.Tool.Driver.Name != "bflint" {
		t.Errorf("driver name = %q, want bflint", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) == 0 {
		t.Error("driver lists no rules; every suite analyzer should appear")
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"wirecover", "statecover", "schemalock"} {
		if !ruleIDs[want] {
			t.Errorf("rule %q missing from driver rules", want)
		}
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "wirecover" || res.Level != "error" {
		t.Errorf("result = %+v, want ruleId wirecover level error", res)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/wire/fault.go" || loc.Region.StartLine != 120 || loc.Region.StartColumn != 2 {
		t.Errorf("location = %+v, want internal/wire/fault.go:120:2", loc)
	}
}

// A clean run must emit empty (not null) rules-consumer arrays so the
// CI jq gate `.runs[0].results | length` never faults.
func TestEmitSARIFCleanIsEmptyRun(t *testing.T) {
	var sb strings.Builder
	if err := emitSARIF(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `"results": null`) {
		t.Fatalf("clean output has null results; want []:\n%s", sb.String())
	}
	var decoded sarifLog
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Runs[0].Results == nil || len(decoded.Runs[0].Results) != 0 {
		t.Errorf("clean results = %v, want empty non-null array", decoded.Runs[0].Results)
	}
}

// -json and -sarif are mutually exclusive output modes.
func TestJSONAndSARIFAreExclusive(t *testing.T) {
	if code := run([]string{"-json", "-sarif", "bfvlsi/internal/bitutil"}); code != 2 {
		t.Errorf("-json -sarif exit code = %d, want 2", code)
	}
}

// -writeschema is byte-stable run over run and matches the committed
// manifest, so `cmp` in make lint-schema is a reliable drift gate.
func TestWriteSchemaIsStableAndCommitted(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.lock")
	second := filepath.Join(dir, "second.lock")
	if code := run([]string{"-writeschema", "-o", first}); code != 0 {
		t.Fatalf("-writeschema exit code = %d, want 0", code)
	}
	if code := run([]string{"-writeschema", "-o", second}); code != 0 {
		t.Fatalf("second -writeschema exit code = %d, want 0", code)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("-writeschema is not byte-stable:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "internal", "wire", "schema.lock"))
	if err != nil {
		t.Fatalf("committed manifest missing: %v", err)
	}
	if string(a) != string(committed) {
		t.Errorf("committed internal/wire/schema.lock is stale; regenerate with `bflint -writeschema`:\n--- generated ---\n%s--- committed ---\n%s", a, committed)
	}
}
