package experiments

import (
	"bytes"
	"fmt"
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
