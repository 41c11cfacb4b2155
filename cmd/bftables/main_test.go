package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestTablesOutputPinned renders every experiment in full mode and
// byte-compares the result with the committed tables_output.txt, so a
// change to any printed number of E1-E20 (the paper-exact layout and
// packaging figures among them) fails here rather than going unseen.
func TestTablesOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode experiment run skipped in -short mode")
	}
	want, err := os.ReadFile("../../tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := render(&got, false, nil); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from tables_output.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

func TestRenderUnknownName(t *testing.T) {
	var buf bytes.Buffer
	err := render(&buf, true, []string{"e99"})
	if err == nil || !strings.Contains(err.Error(), "no experiment matched [e99]") {
		t.Errorf("render(e99) = %v, want a no-match error", err)
	}
}
