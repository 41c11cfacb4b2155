package wire

import (
	"bytes"
	"flag"
	"path/filepath"
	"testing"

	"bfvlsi/internal/wire/wiretest"
)

var updateGolden = flag.Bool("update", false, "write the golden frames of new format versions")

// TestGoldenFrames pins the encoded bytes of every sample against its
// committed frame testdata/golden/<name>.v<N>.bin, N being the frame's
// version byte. -update only writes frames that are missing, so any
// byte change under an unchanged Version constant fails: bump the
// constant, then `go test ./internal/wire -run TestGoldenFrames -update`
// writes the new version's frames.
func TestGoldenFrames(t *testing.T) {
	for name, v := range sampleValues(t) {
		t.Run(name, func(t *testing.T) {
			got, err := v.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			want := wiretest.Frame(t, filepath.Join("testdata", "golden"), name, got, *updateGolden)
			// The committed frame must still decode, and re-encode to
			// itself: on-disk caches and archived sweep results written
			// by old binaries stay readable.
			dec := newValue(v)
			if err := dec.UnmarshalBinary(want); err != nil {
				t.Fatalf("committed frame no longer decodes: %v", err)
			}
			again, err := dec.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal of committed frame: %v", err)
			}
			if !bytes.Equal(again, want) {
				t.Errorf("decode+re-encode of the committed frame differs:\n got %x\nwant %x", again, want)
			}
		})
	}
}

// TestSampleCoverage requires the samples to exercise every field of
// every wire type, including the structs other packages declare
// (routing.Result under RouteResult): each field is non-zero in
// some sample, and same-typed sibling fields differ in some sample, so
// TestRoundTripByteIdentity sees a dropped, unset or swapped field.
func TestSampleCoverage(t *testing.T) {
	var c wiretest.Coverage
	for _, v := range sampleValues(t) {
		c.Add(v)
	}
	c.Check(t, nil)
}
