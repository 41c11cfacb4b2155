package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// Every experiment must run cleanly in quick mode: the reproduction
// harness itself is under test.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	for _, ex := range All() {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ex.Run(&Config{W: &buf, Quick: true}); err != nil {
				t.Fatalf("%s: %v", ex.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", ex.Name)
			}
		})
	}
}

// Golden content markers: the experiments must report the paper's
// headline numbers.
func TestExperimentGoldenMarkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	cases := []struct {
		name    string
		markers []string
	}{
		{"e1", []string{"VERIFIED", "butterfly row 2 (paper: 2)"}},
		{"e4", []string{"20", "floor(N^2/4)"}},
		{"e5", []string{"0.7000", "1.2000"}},
		{"e9", []string{"409600", "160000", "78400", "171"}},
		{"e12", []string{"max |err|"}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := Run(tc.name, &Config{W: &buf, Quick: true}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out := buf.String()
		for _, m := range tc.markers {
			if !strings.Contains(out, m) {
				t.Errorf("%s output missing %q", tc.name, m)
			}
		}
	}
}

func TestRunUnknownName(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", &Config{W: &buf}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAllNamesUniqueAndOrdered(t *testing.T) {
	all := All()
	for i, ex := range all {
		if want := fmt.Sprintf("e%d", i+1); ex.Name != want {
			t.Errorf("experiment %d is named %s, want %s", i, ex.Name, want)
		}
		if ex.Desc == "" || ex.Run == nil {
			t.Errorf("experiment %s incomplete", ex.Name)
		}
	}
	if len(all) != 20 {
		t.Errorf("have %d experiments, want 20", len(all))
	}
}
