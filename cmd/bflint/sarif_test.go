package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// The SARIF shape is load-bearing: CI's jq expression indexes
// .runs[0].results[].locations[0].physicalLocation. Pin it.
func TestEmitSARIFSchema(t *testing.T) {
	var sb strings.Builder
	err := emitSARIF(&sb, []jsonDiagnostic{
		{
			File:     "internal/serve/cache.go",
			Line:     120,
			Column:   2,
			Analyzer: "lockcheck",
			Category: "lockcheck",
			Message:  "c.bytes is guarded by c.mu",
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
	var ruleIDs []string
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs = append(ruleIDs, r.ID)
	}
	want := "[detrand maporder conscount errflush lockcheck]"
	if got := fmt.Sprint(ruleIDs); got != want {
		t.Errorf("SARIF rules = %s, want the five suite analyzers %s", got, want)
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "lockcheck" || res.Level != "error" {
		t.Errorf("result = %+v, want ruleId lockcheck level error", res)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/serve/cache.go" || loc.Region.StartLine != 120 || loc.Region.StartColumn != 2 {
		t.Errorf("location = %+v, want internal/serve/cache.go:120:2", loc)
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
