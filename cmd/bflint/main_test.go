package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// The -json field names are load-bearing: the CI annotation step
// addresses them by name in a jq expression. Pin the schema.
func TestEmitJSONSchema(t *testing.T) {
	var sb strings.Builder
	err := emitJSON(&sb, []jsonDiagnostic{
		{
			File:     "internal/routing/routing.go",
			Line:     42,
			Column:   7,
			Analyzer: "maporder",
			Category: "maporder",
			Message:  "print inside range over map",
		},
		{
			File:     "internal/serve/cache.go",
			Line:     7,
			Column:   2,
			Analyzer: "lockcheck",
			Category: "lockcheck",
			Message:  "c.bytes is guarded by c.mu",
		},
		{
			File:     "internal/serve/cache.go",
			Line:     9,
			Column:   2,
			Analyzer: "lockcheck",
			Category: "lockcheck",
			Message:  "c.order is guarded by c.mu",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var decoded jsonReport
	dec := json.NewDecoder(strings.NewReader(sb.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("output is not the report document: %v\n%s", err, sb.String())
	}
	if len(decoded.Findings) != 3 {
		t.Fatalf("decoded %d findings, want 3", len(decoded.Findings))
	}
	var asMap struct {
		Findings []map[string]any `json:"findings"`
		Summary  map[string]any   `json:"summary"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &asMap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"file", "line", "column", "analyzer", "category", "message"} {
		if _, ok := asMap.Findings[0][key]; !ok {
			t.Errorf("finding is missing the %q key:\n%s", key, sb.String())
		}
	}
	if decoded.Summary.Total != 3 {
		t.Errorf("summary.total = %d, want 3", decoded.Summary.Total)
	}
	if decoded.Summary.ByAnalyzer["lockcheck"] != 2 || decoded.Summary.ByAnalyzer["maporder"] != 1 {
		t.Errorf("summary.by_analyzer = %v, want lockcheck:2 maporder:1", decoded.Summary.ByAnalyzer)
	}
}

// A clean run must emit an empty findings array and a zeroed summary —
// not nulls, not empty output — so the CI step's jq indexing never
// faults.
func TestEmitJSONCleanIsEmptyReport(t *testing.T) {
	var sb strings.Builder
	if err := emitJSON(&sb, nil); err != nil {
		t.Fatal(err)
	}
	var decoded jsonReport
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("clean output does not decode: %v\n%s", err, sb.String())
	}
	if decoded.Findings == nil {
		t.Error("clean output has null findings; want []")
	}
	if decoded.Summary.Total != 0 || decoded.Summary.ByAnalyzer == nil {
		t.Errorf("clean summary = %+v, want total 0 and non-null by_analyzer", decoded.Summary)
	}
}

// End to end: `bflint -json` over a clean package exits 0 and prints a
// parseable (empty) report on stdout.
func TestRunJSONCleanPackage(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run([]string{"-json", "bfvlsi/internal/bitutil"})
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0; output:\n%s", code, out)
	}
	var decoded jsonReport
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("stdout is not the report document: %v\n%s", err, out)
	}
	if len(decoded.Findings) != 0 {
		t.Errorf("clean package produced %d findings: %v", len(decoded.Findings), decoded.Findings)
	}
	if decoded.Summary.Total != 0 {
		t.Errorf("clean package summary.total = %d, want 0", decoded.Summary.Total)
	}
}
