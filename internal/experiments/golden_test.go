package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current output")

// The experiments are the repo's printed face: bftables regenerates
// every table from them. Each experiment's quick-mode report is pinned
// byte for byte against testdata/<name>.golden, so a moved paper number
// fails here, and so does any order-sensitive iteration that sneaks
// into an output path (the regression net behind the maporder
// analyzer). All twenty run in under a second, so the check runs under
// -short. Regenerate with `go test ./internal/experiments -run
// TestExperimentOutputByteIdentical -update` only for a deliberate
// change of output.
func TestExperimentOutputByteIdentical(t *testing.T) {
	for _, ex := range All() {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ex.Run(&Config{W: &buf, Quick: true}); err != nil {
				t.Fatalf("%s: %v", ex.Name, err)
			}
			got := buf.Bytes()
			path := filepath.Join("testdata", ex.Name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("output differs from %s near byte %d:\n--- got ---\n%s\n--- want ---\n%s",
					path, firstDiff(got, want), got, want)
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
