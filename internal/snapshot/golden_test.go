package snapshot

import (
	"bytes"
	"flag"
	"path/filepath"
	"testing"

	"bfvlsi/internal/wire/wiretest"
)

var updateGolden = flag.Bool("update", false, "write the golden frames of new format versions")

// TestGoldenFrames pins the encoded bytes of the snapshot wire types —
// a fully loaded Spec and a mid-run Checkpoint of the deepest stack
// (VC + faults + reliable + adaptive) — against the committed frames
// testdata/golden/<name>.v<N>.bin, N being the frame's version byte.
// The checkpoint is deterministic by the restore-determinism contract,
// so its bytes are a stable fingerprint of both the encoder and the
// simulator. -update only writes frames that are missing: a byte change
// under an unchanged Version constant fails, so bump the constant, then
// `go test ./internal/snapshot -run TestGoldenFrames -update` writes the
// new version's frames.
func TestGoldenFrames(t *testing.T) {
	specs := testSpecs()
	spec := specs[len(specs)-1].Spec // vc-faults-reliable-adaptive
	run, err := Start(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.StepTo(45); err != nil {
		t.Fatal(err)
	}
	ck := run.Checkpoint()

	frames := []struct {
		name string
		data func() ([]byte, error)
	}{
		{"spec", spec.MarshalBinary},
		{"checkpoint", ck.MarshalBinary},
	}
	for _, fr := range frames {
		t.Run(fr.name, func(t *testing.T) {
			got, err := fr.data()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			want := wiretest.Frame(t, filepath.Join("testdata", "golden"), fr.name, got, *updateGolden)
			if fr.name == "checkpoint" {
				checkResumes(t, want)
			}
		})
	}
}

// checkResumes requires the committed checkpoint frame to decode,
// re-encode to itself and resume at its cycle: archived checkpoints
// written by old binaries stay usable.
func checkResumes(t *testing.T, want []byte) {
	t.Helper()
	var dec Checkpoint
	if err := dec.UnmarshalBinary(want); err != nil {
		t.Fatalf("committed checkpoint no longer decodes: %v", err)
	}
	again, err := dec.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal of committed checkpoint: %v", err)
	}
	if !bytes.Equal(again, want) {
		t.Error("decode+re-encode of the committed checkpoint differs")
	}
	restored, err := dec.Restore(nil)
	if err != nil {
		t.Fatalf("committed checkpoint does not restore: %v", err)
	}
	if restored.Sim.Cycle() != 45 {
		t.Errorf("restored run resumes at cycle %d, want 45", restored.Sim.Cycle())
	}
}
